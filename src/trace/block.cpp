#include "trace/block.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "common/error.hpp"
#include "trace/io.hpp"

namespace botmeter::trace {

// The codec writes integers in their native representation and documents the
// format as little-endian; every deployment target of this system is LE.
static_assert(std::endian::native == std::endian::little,
              "trace_block codec assumes a little-endian host");

namespace {

constexpr char kFileMagic[8] = {'B', 'M', 'T', 'B', 'L', 'K', '1', '\n'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint32_t kBlockMagic = 0xB07B10C5;
constexpr std::size_t kFileHeaderBytes = 16;
constexpr std::size_t kBlockHeaderBytes = 32;
/// Checksummed prefix of the block header (everything before the checksum).
constexpr std::size_t kChecksummedBytes = 24;
/// Upper bound on one block's payload — far above any writer-produced block
/// (64k tuples ≈ 1 MiB); a "consistent" corrupt header cannot demand a
/// multi-gigabyte allocation.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;
/// Writer-side cap on tuples per block: the fixed columns alone cost 16
/// bytes per tuple, so anything above this could never frame a payload a
/// reader accepts (and would overflow the u32 header fields well before).
constexpr std::size_t kMaxBlockTuples = kMaxPayloadBytes / 16;

constexpr std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

std::uint64_t fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void pad_to_8(std::string& out) { out.append(align8(out.size()) - out.size(), '\0'); }

std::uint32_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t load_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

[[noreturn]] void corrupt(std::uint64_t block_no, std::uint64_t byte_offset,
                          const std::string& reason) {
  throw DataError("trace block error at block " + std::to_string(block_no) +
                  " (byte offset " + std::to_string(byte_offset) + "): " +
                  reason);
}

}  // namespace

// --- writer ----------------------------------------------------------------

BlockWriter::BlockWriter(std::ostream& os, std::size_t block_tuples)
    : os_(&os), block_tuples_(block_tuples) {
  if (block_tuples_ == 0) {
    throw ConfigError("BlockWriter: block_tuples must be > 0");
  }
  if (block_tuples_ > kMaxBlockTuples) {
    throw ConfigError("BlockWriter: block_tuples " +
                      std::to_string(block_tuples_) + " exceeds the maximum " +
                      std::to_string(kMaxBlockTuples) +
                      " (one block's payload must stay under " +
                      std::to_string(kMaxPayloadBytes) + " bytes)");
  }
  std::string header;
  header.append(kFileMagic, sizeof(kFileMagic));
  put_u32(header, kFormatVersion);
  put_u32(header, 0);  // reserved
  os_->write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!*os_) throw DataError("trace block write failed: file header");
  t_ms_.reserve(block_tuples_);
  server_.reserve(block_tuples_);
  domain_.reserve(block_tuples_);
}

BlockWriter::~BlockWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; callers who care about write failures
    // (every tool does) call finish() explicitly.
  }
}

std::uint32_t BlockWriter::intern(std::string_view domain) {
  if (domain.empty()) throw DataError("BlockWriter: empty domain");
  if (domain.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw DataError("BlockWriter: domain longer than 65535 bytes");
  }
  const auto it = intern_.find(domain);
  if (it != intern_.end()) return it->second;
  // Once per distinct domain: a separator in a domain would turn into extra
  // records or fields when the trace is converted to text.
  check_text_domain(domain, "BlockWriter: tuple", tuples_written_ + 1);
  if (table_size_ == std::numeric_limits<std::uint32_t>::max()) {
    throw DataError("BlockWriter: domain table overflow");
  }
  const std::uint32_t id = table_size_++;
  intern_.emplace(std::string(domain), id);
  const auto len = static_cast<std::uint16_t>(domain.size());
  new_strings_.append(reinterpret_cast<const char*>(&len), sizeof(len));
  new_strings_.append(domain.data(), domain.size());
  ++new_domain_count_;
  return id;
}

void BlockWriter::append(TimePoint t, dns::ServerId server,
                         std::string_view domain) {
  if (finished_) throw DataError("BlockWriter: append after finish()");
  const std::uint32_t id = intern(domain);  // may throw: nothing appended
  t_ms_.push_back(t.millis());
  server_.push_back(server.value());
  domain_.push_back(id);
  ++tuples_written_;
  if (t_ms_.size() >= block_tuples_) flush_block();
}

void BlockWriter::flush_block() {
  const std::size_t count = t_ms_.size();
  if (count == 0) return;
  const std::size_t string_bytes = new_strings_.size();
  const std::size_t payload = align8(string_bytes) + std::size_t{8} * count +
                              2 * align8(std::size_t{4} * count);
  // Readers reject any payload above kMaxPayloadBytes as corrupt, and the
  // header's size fields are u32 — a block that cannot be framed faithfully
  // must fail loudly at write time, never truncate into a "corrupt" file.
  if (payload > kMaxPayloadBytes) {
    throw DataError("trace block payload too large at block " +
                    std::to_string(blocks_written_) + " (" +
                    std::to_string(payload) + " bytes; limit " +
                    std::to_string(kMaxPayloadBytes) +
                    " — lower block_tuples)");
  }
  const auto n = static_cast<std::uint32_t>(count);

  std::string frame;
  frame.reserve(kBlockHeaderBytes + payload);
  put_u32(frame, kBlockMagic);
  put_u32(frame, n);
  put_u32(frame, new_domain_count_);
  put_u32(frame, static_cast<std::uint32_t>(string_bytes));
  put_u32(frame, pending_first_id_);
  put_u32(frame, static_cast<std::uint32_t>(payload));
  put_u64(frame, fnv1a(frame.data(), kChecksummedBytes));

  frame.append(new_strings_);
  pad_to_8(frame);
  frame.append(reinterpret_cast<const char*>(t_ms_.data()),
               sizeof(std::int64_t) * n);
  frame.append(reinterpret_cast<const char*>(server_.data()),
               sizeof(std::uint32_t) * n);
  pad_to_8(frame);
  frame.append(reinterpret_cast<const char*>(domain_.data()),
               sizeof(std::uint32_t) * n);
  pad_to_8(frame);

  os_->write(frame.data(), static_cast<std::streamsize>(frame.size()));
  if (!*os_) {
    throw DataError("trace block write failed at block " +
                    std::to_string(blocks_written_) +
                    " (disk full or closed stream)");
  }
  ++blocks_written_;
  t_ms_.clear();
  server_.clear();
  domain_.clear();
  new_strings_.clear();
  new_domain_count_ = 0;
  pending_first_id_ = table_size_;
}

void BlockWriter::finish() {
  if (finished_) return;
  flush_block();
  os_->flush();
  if (!*os_) throw DataError("trace block write failed: final flush");
  finished_ = true;
}

// --- reader ----------------------------------------------------------------

BlockReader::BlockReader(std::istream& is) : is_(&is) {
  char header[kFileHeaderBytes];
  is_->read(header, sizeof(header));
  if (is_->bad()) throw DataError("I/O error reading trace block file header");
  if (static_cast<std::size_t>(is_->gcount()) != sizeof(header)) {
    throw DataError("truncated trace block file header (" +
                    std::to_string(is_->gcount()) + " of " +
                    std::to_string(sizeof(header)) + " bytes)");
  }
  if (std::memcmp(header, kFileMagic, sizeof(kFileMagic)) != 0) {
    throw DataError("not a trace block file (bad magic)");
  }
  const std::uint32_t version = load_u32(header + sizeof(kFileMagic));
  if (version != kFormatVersion) {
    throw DataError("unsupported trace block version " +
                    std::to_string(version) + " (expected " +
                    std::to_string(kFormatVersion) + ")");
  }
  // The reserved word is zero in v1; a future writer setting it would be
  // signalling a feature this reader does not understand, and a corrupted
  // header must never decode silently.
  if (load_u32(header + sizeof(kFileMagic) + 4) != 0) {
    throw DataError("unsupported trace block file (reserved field nonzero)");
  }
  byte_offset_ = kFileHeaderBytes;
}

std::optional<dns::LookupColumns> BlockReader::next() {
  char header[kBlockHeaderBytes];
  is_->read(header, sizeof(header));
  if (is_->bad()) {
    corrupt(blocks_read_, byte_offset_, "I/O error reading block header");
  }
  const auto got = static_cast<std::size_t>(is_->gcount());
  if (got == 0) return std::nullopt;  // clean EOF at a block boundary
  if (got != sizeof(header)) {
    corrupt(blocks_read_, byte_offset_,
            "truncated block header (" + std::to_string(got) + " of " +
                std::to_string(sizeof(header)) + " bytes)");
  }
  if (load_u32(header) != kBlockMagic) {
    corrupt(blocks_read_, byte_offset_, "bad block magic");
  }
  if (load_u64(header + kChecksummedBytes) !=
      fnv1a(header, kChecksummedBytes)) {
    corrupt(blocks_read_, byte_offset_, "block header checksum mismatch");
  }
  const std::uint32_t n = load_u32(header + 4);
  const std::uint32_t new_domains = load_u32(header + 8);
  const std::uint32_t string_bytes = load_u32(header + 12);
  const std::uint32_t first_id = load_u32(header + 16);
  const std::uint32_t payload_bytes = load_u32(header + 20);
  if (payload_bytes > kMaxPayloadBytes) {
    corrupt(blocks_read_, byte_offset_, "implausible payload size");
  }
  const std::size_t expected = align8(string_bytes) + std::size_t{8} * n +
                               2 * align8(std::size_t{4} * n);
  if (payload_bytes != expected) {
    corrupt(blocks_read_, byte_offset_,
            "payload size does not match the block's counts");
  }
  if (first_id != domains_.size()) {
    corrupt(blocks_read_, byte_offset_,
            "string table discontinuity (block starts at id " +
                std::to_string(first_id) + ", table holds " +
                std::to_string(domains_.size()) + ")");
  }

  payload_.resize(payload_bytes / 8);
  char* bytes = reinterpret_cast<char*>(payload_.data());
  is_->read(bytes, static_cast<std::streamsize>(payload_bytes));
  if (is_->bad()) {
    corrupt(blocks_read_, byte_offset_, "I/O error reading block payload");
  }
  if (static_cast<std::size_t>(is_->gcount()) != payload_bytes) {
    corrupt(blocks_read_, byte_offset_,
            "truncated block payload (" + std::to_string(is_->gcount()) +
                " of " + std::to_string(payload_bytes) + " bytes)");
  }

  // Decode the delta string section into the accumulated table: one bulk
  // arena copy per block (the payload buffer is reused next call), then
  // views into it — no per-domain heap allocation.
  std::size_t pos = 0;
  domains_.reserve(domains_.size() + new_domains);
  const char* arena = nullptr;
  if (new_domains > 0) {
    string_arena_.emplace_back(bytes, string_bytes);
    arena = string_arena_.back().data();
  }
  for (std::uint32_t i = 0; i < new_domains; ++i) {
    if (pos + 2 > string_bytes) {
      corrupt(blocks_read_, byte_offset_, "string section overruns its length");
    }
    std::uint16_t len;
    std::memcpy(&len, bytes + pos, sizeof(len));
    pos += 2;
    if (len == 0 || pos + len > string_bytes) {
      corrupt(blocks_read_, byte_offset_,
              len == 0 ? "empty domain string in table"
                       : "string section overruns its length");
    }
    domains_.emplace_back(arena + pos, len);
    pos += len;
  }
  if (pos != string_bytes) {
    corrupt(blocks_read_, byte_offset_,
            "string section length does not match its contents");
  }

  const std::size_t t_off = align8(string_bytes);
  const std::size_t server_off = t_off + std::size_t{8} * n;
  const std::size_t domain_off = server_off + align8(std::size_t{4} * n);
  dns::LookupColumns view{
      std::span<const std::int64_t>(
          reinterpret_cast<const std::int64_t*>(bytes + t_off), n),
      std::span<const std::uint32_t>(
          reinterpret_cast<const std::uint32_t*>(bytes + server_off), n),
      std::span<const std::uint32_t>(
          reinterpret_cast<const std::uint32_t*>(bytes + domain_off), n)};

  // Every id must resolve into the table so downstream consumers can index
  // it unchecked; one branchless max-scan per block.
  std::uint32_t max_id = 0;
  for (const std::uint32_t id : view.domain) max_id = std::max(max_id, id);
  if (n > 0 && max_id >= domains_.size()) {
    corrupt(blocks_read_, byte_offset_,
            "domain id " + std::to_string(max_id) +
                " out of range (table holds " +
                std::to_string(domains_.size()) + ")");
  }

  byte_offset_ += kBlockHeaderBytes + payload_bytes;
  ++blocks_read_;
  tuples_read_ += n;
  return view;
}

// --- whole-trace helpers ---------------------------------------------------

void write_blocks(std::ostream& os,
                  std::span<const dns::ForwardedLookup> lookups,
                  std::size_t block_tuples) {
  BlockWriter writer(os, block_tuples);
  for (const dns::ForwardedLookup& lookup : lookups) writer.append(lookup);
  writer.finish();
}

std::vector<dns::ForwardedLookup> read_blocks(std::istream& is) {
  // Copy the columns first (16 B per tuple) so the tuple vector — 48 B per
  // tuple plus its strings — is allocated once at its exact size instead of
  // regrowing through the trace. The table's views live as long as the
  // reader, so the strings are built after the last block.
  BlockReader reader(is);
  std::vector<std::int64_t> t_ms;
  std::vector<std::uint32_t> server;
  std::vector<std::uint32_t> domain;
  while (const std::optional<dns::LookupColumns> block = reader.next()) {
    t_ms.insert(t_ms.end(), block->t_ms.begin(), block->t_ms.end());
    server.insert(server.end(), block->server.begin(), block->server.end());
    domain.insert(domain.end(), block->domain.begin(), block->domain.end());
  }
  const std::span<const std::string_view> table = reader.domains();
  std::vector<dns::ForwardedLookup> lookups;
  lookups.reserve(t_ms.size());
  for (std::size_t i = 0; i < t_ms.size(); ++i) {
    lookups.push_back(dns::ForwardedLookup{TimePoint{t_ms[i]},
                                           dns::ServerId{server[i]},
                                           std::string(table[domain[i]])});
  }
  return lookups;
}

std::size_t for_each_block(
    std::istream& is,
    const std::function<void(const dns::LookupColumns&,
                             std::span<const std::string_view>)>& sink) {
  BlockReader reader(is);
  while (const std::optional<dns::LookupColumns> block = reader.next()) {
    sink(*block, reader.domains());
  }
  return static_cast<std::size_t>(reader.tuples_read());
}

bool sniff_block_file(std::istream& is) {
  const std::istream::pos_type pos = is.tellg();
  if (pos == std::istream::pos_type(-1)) return false;
  char magic[sizeof(kFileMagic)];
  is.read(magic, sizeof(magic));
  const bool matched =
      static_cast<std::size_t>(is.gcount()) == sizeof(magic) &&
      std::memcmp(magic, kFileMagic, sizeof(magic)) == 0;
  is.clear();
  is.seekg(pos);
  return matched;
}

}  // namespace botmeter::trace

// Binary columnar trace codec — schema `botmeter.trace_block.v1`.
//
// The text format of trace/io.hpp is the interchange codec: trivially
// greppable, collector-friendly, and slower — its reader scans every byte of
// every line and the per-tuple ingest hashes every tuple's domain in the
// matcher, where this codec resolves each distinct domain once. This codec
// is the hot-path representation:
// fixed-capacity framed blocks holding column arrays of
// (t_ms, server_id, domain_id) plus a per-file interned domain string table,
// so a consumer touches three flat arrays per block and resolves each
// distinct domain string exactly once per file.
//
// File layout (all integers little-endian, all offsets 8-byte aligned):
//
//   file header (16 bytes)
//     magic     u8[8]  "BMTBLK1\n"
//     version   u32    1
//     reserved  u32    0
//   block*  (zero or more, until clean EOF)
//     block header (32 bytes)
//       block_magic      u32   0xB07B10C5
//       tuple_count      u32   tuples in this block (may be 0 only for a
//                              final flush of new strings; writers avoid it)
//       new_domain_count u32   domain strings first interned in this block
//       string_bytes     u32   unpadded byte length of the string section
//       first_domain_id  u32   id of the first new string == table size so
//                              far (redundant; validates table continuity)
//       payload_bytes    u32   total payload length after this header,
//                              including padding (lets readers skip blocks)
//       header_checksum  u64   FNV-1a over the 24 preceding header bytes —
//                              a bit-flipped header is always a loud,
//                              located DataError, never a crash or a
//                              silently wrong decode
//     payload (payload_bytes, 8-aligned sections in this order)
//       strings  new_domain_count × (u16 length + bytes), padded to 8.
//                Ids are assigned in order of first appearance, file-global:
//                block k's tuples may reference any id < first_domain_id +
//                new_domain_count.
//       t_ms     i64 × tuple_count
//       server   u32 × tuple_count, padded to 8
//       domain   u32 × tuple_count, padded to 8
//
// Versioning rules: the magic pins the major format; `version` bumps on any
// layout change (readers reject unknown versions loudly). Appending new
// trailing sections to the payload is NOT backward compatible by design —
// payload_bytes is validated against the counts, so old readers fail fast
// instead of misdecoding.
//
// Reading is zero-copy batched: BlockReader reads one whole payload into a
// reusable 8-byte-aligned buffer kept at its high-water size and hands out
// spans over it — no per-tuple work, no allocation or zero-fill for a block
// that fits what an earlier one needed. The accumulated domain table is a
// vector of string_views into per-block arena copies of the string sections
// (one bulk copy per block, not one heap allocation per distinct domain);
// the vector grows geometrically, so a trace interning new domains in every
// block re-seats it O(log table) times in all. Views stay valid for the
// reader's lifetime. Everything
// is validated before a view escapes: header checksum, section arithmetic,
// string-table continuity, and every domain id < table size, so downstream
// consumers may index the table unchecked.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/vantage.hpp"

namespace botmeter::trace {

inline constexpr std::string_view kBlockSchema = "botmeter.trace_block.v1";

/// Default block capacity: 64k tuples ≈ 1 MiB of columns — large enough to
/// amortise framing, small enough to stay cache- and latency-friendly.
inline constexpr std::size_t kDefaultBlockTuples = std::size_t{1} << 16;

/// Streaming writer. Appended tuples accumulate into columns and are framed
/// out every `block_tuples`; finish() flushes the tail and verifies the
/// ostream, throwing DataError on any write failure (a full disk is a loud
/// error, never a silently truncated file). The destructor flushes
/// best-effort but swallows errors — call finish() to observe them.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& os,
                       std::size_t block_tuples = kDefaultBlockTuples);
  ~BlockWriter();

  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  /// Throws DataError, appending nothing, for an empty domain, one longer
  /// than 65535 bytes, or one holding a tab or newline or ending in a CR
  /// (it could not be converted to text: trace/io.hpp check_text_domain).
  void append(TimePoint t, dns::ServerId server, std::string_view domain);
  void append(const dns::ForwardedLookup& lookup) {
    append(lookup.timestamp, lookup.forwarder, lookup.domain);
  }

  /// Frame out buffered tuples (writers normally let capacity trigger this).
  void flush_block();
  /// Flush the tail block and the ostream; throws DataError if any byte
  /// failed to land. Idempotent; append() afterwards throws.
  void finish();

  [[nodiscard]] std::uint64_t tuples_written() const { return tuples_written_; }
  [[nodiscard]] std::uint64_t blocks_written() const { return blocks_written_; }
  /// Distinct domains interned so far (the string-table size).
  [[nodiscard]] std::size_t domain_count() const { return table_size_; }

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::uint32_t intern(std::string_view domain);

  std::ostream* os_;
  std::size_t block_tuples_;
  bool finished_ = false;

  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      intern_;
  std::uint32_t table_size_ = 0;

  // Pending block state.
  std::vector<std::int64_t> t_ms_;
  std::vector<std::uint32_t> server_;
  std::vector<std::uint32_t> domain_;
  std::string new_strings_;  // encoded (u16 len + bytes) section
  std::uint32_t new_domain_count_ = 0;
  std::uint32_t pending_first_id_ = 0;

  std::uint64_t tuples_written_ = 0;
  std::uint64_t blocks_written_ = 0;
};

/// Streaming reader. next() decodes one block into an internal reusable
/// aligned buffer and returns a columnar view valid until the next call
/// (clean EOF → nullopt; any corruption or truncation → DataError naming the
/// block and byte offset). domains() is the accumulated per-file string
/// table the `domain` column indexes; it only grows, ids are stable, and the
/// views stay valid for the reader's lifetime (they point into arena copies
/// of the blocks' string sections). The span itself is re-seated when the
/// table grows (amortized, O(log table) times per file): re-read domains()
/// after each next() rather than keeping an earlier span.
class BlockReader {
 public:
  explicit BlockReader(std::istream& is);

  [[nodiscard]] std::optional<dns::LookupColumns> next();

  [[nodiscard]] std::span<const std::string_view> domains() const {
    return domains_;
  }
  [[nodiscard]] std::uint64_t tuples_read() const { return tuples_read_; }
  [[nodiscard]] std::uint64_t blocks_read() const { return blocks_read_; }

 private:
  std::istream* is_;
  std::vector<std::string_view> domains_;
  /// One decoded string section per block with new domains. The table's
  /// views point into these entries, so their character buffers must never
  /// move: a deque keeps element addresses stable under push_back, where a
  /// vector reallocation would move SSO-sized sections (a block interning a
  /// single short domain) and dangle every earlier view.
  std::deque<std::string> string_arena_;
  /// Payload buffer; u64-backed so the decoded i64/u32 columns are aligned.
  /// Never shrinks: each block reads into its first payload_bytes.
  std::vector<std::uint64_t> payload_;
  std::uint64_t tuples_read_ = 0;
  std::uint64_t blocks_read_ = 0;
  std::uint64_t byte_offset_ = 0;
};

/// Whole-trace helpers (the interchange-style entry points).
void write_blocks(std::ostream& os,
                  std::span<const dns::ForwardedLookup> lookups,
                  std::size_t block_tuples = kDefaultBlockTuples);
[[nodiscard]] std::vector<dns::ForwardedLookup> read_blocks(std::istream& is);

/// Stream every block through `sink(columns, table)` without materialising
/// tuples; `table` is the reader's full accumulated string table. Returns
/// the number of tuples delivered.
std::size_t for_each_block(
    std::istream& is,
    const std::function<void(const dns::LookupColumns&,
                             std::span<const std::string_view>)>& sink);

/// The codec of the trace `is` holds: true when its next byte is the first
/// byte of the trace_block file magic, 'B' (a text trace line starts with a
/// digit or '-', or is blank). Peeks one byte and consumes nothing, so it
/// answers for pipes as for files; BlockReader still checks the whole magic.
/// False on an empty stream.
[[nodiscard]] bool is_block_stream(std::istream& is);

}  // namespace botmeter::trace

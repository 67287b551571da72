// The binary columnar trace codec (schema botmeter.trace_block.v1).
//
// Properties pinned here:
//   - lossless round trips (tuples, multi-block framing, the empty trace,
//     string tables past 64k distinct domains, alternating block sizes);
//   - the domain table grows amortized: one new domain per block re-seats
//     it O(log n) times, and earlier views stay valid;
//   - text → binary → text reproduces the canonical text bytes exactly
//     (the codec pair is injective on write_observable output);
//   - every corruption — truncation anywhere, and every possible single
//     bit flip in the file and block headers — is a loud, located
//     DataError, never a crash, a hang, or a silently wrong decode.
#include "trace/block.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trace/io.hpp"

namespace botmeter::trace {
namespace {

std::vector<dns::ForwardedLookup> sample_trace(std::size_t n,
                                               std::uint64_t seed = 11,
                                               std::uint32_t distinct = 64) {
  Rng rng(seed);
  std::vector<dns::ForwardedLookup> lookups;
  lookups.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto d = static_cast<std::uint32_t>(rng.uniform(distinct));
    lookups.push_back(dns::ForwardedLookup{
        TimePoint{static_cast<std::int64_t>(i) * 250 - 1000},
        dns::ServerId{static_cast<std::uint32_t>(rng.uniform(8))},
        "host" + std::to_string(d) + ".example"});
  }
  return lookups;
}

std::string encode(std::span<const dns::ForwardedLookup> lookups,
                   std::size_t block_tuples = kDefaultBlockTuples) {
  std::ostringstream os;
  write_blocks(os, lookups, block_tuples);
  return os.str();
}

TEST(TraceBlockTest, RoundTripPreservesEveryTuple) {
  const auto lookups = sample_trace(1000);
  std::istringstream is(encode(lookups));
  const auto decoded = read_blocks(is);
  EXPECT_EQ(decoded, lookups);
}

TEST(TraceBlockTest, ReadBlocksAllocatesTheTuplesOnce) {
  // Many tiny blocks: read_blocks still sizes its result exactly once.
  const auto lookups = sample_trace(100);
  std::istringstream is(encode(lookups, 3));
  const auto decoded = read_blocks(is);
  EXPECT_EQ(decoded, lookups);
  EXPECT_EQ(decoded.capacity(), decoded.size());
}

TEST(TraceBlockTest, EmptyTraceRoundTrips) {
  std::istringstream is(encode({}));
  EXPECT_FALSE(is.str().empty());  // a file header is always present
  EXPECT_TRUE(read_blocks(is).empty());
}

TEST(TraceBlockTest, MultiBlockFramingAndDeltaStringTable) {
  const auto lookups = sample_trace(1000, 13, 300);
  std::istringstream is(encode(lookups, 64));  // force many blocks
  BlockReader reader(is);
  std::vector<dns::ForwardedLookup> decoded;
  std::size_t table_size_before = 0;
  while (const auto block = reader.next()) {
    // The table never shrinks and ids stay stable across blocks.
    EXPECT_GE(reader.domains().size(), table_size_before);
    table_size_before = reader.domains().size();
    for (std::size_t i = 0; i < block->size(); ++i) {
      decoded.push_back(dns::ForwardedLookup{TimePoint{block->t_ms[i]},
                                             dns::ServerId{block->server[i]},
                                             std::string(reader.domains()[block->domain[i]])});
    }
  }
  EXPECT_GT(reader.blocks_read(), 10u);
  EXPECT_EQ(reader.tuples_read(), lookups.size());
  EXPECT_EQ(decoded, lookups);
}

TEST(TraceBlockTest, StringTablePast64kDistinctDomains) {
  // > 2^16 distinct domains: exercises table growth across blocks and ids
  // that no longer fit in 16 bits.
  constexpr std::uint32_t kDistinct = 70'000;
  std::vector<dns::ForwardedLookup> lookups;
  lookups.reserve(kDistinct);
  for (std::uint32_t d = 0; d < kDistinct; ++d) {
    lookups.push_back(dns::ForwardedLookup{TimePoint{d},
                                           dns::ServerId{d % 4},
                                           "d" + std::to_string(d) + ".net"});
  }
  std::istringstream is(encode(lookups, 1 << 14));
  BlockReader reader(is);
  std::vector<dns::ForwardedLookup> decoded;
  while (const auto block = reader.next()) {
    for (std::size_t i = 0; i < block->size(); ++i) {
      decoded.push_back(dns::ForwardedLookup{TimePoint{block->t_ms[i]},
                                             dns::ServerId{block->server[i]},
                                             std::string(reader.domains()[block->domain[i]])});
    }
  }
  EXPECT_EQ(reader.domains().size(), kDistinct);
  EXPECT_EQ(decoded, lookups);
}

TEST(TraceBlockTest, ShortDomainArenaEntriesStayValidAcrossBlocks) {
  // Regression: one short new domain per single-tuple block makes every
  // block's decoded string section small enough for SSO. An arena whose
  // strings move on growth (e.g. a reallocating std::vector<std::string>)
  // dangles every earlier table view — under ASan this was a
  // heap-use-after-free; without it, garbage domains. The table must hold
  // the exact domains after the whole file is read.
  std::vector<dns::ForwardedLookup> lookups;
  for (int i = 0; i < 500; ++i) {
    lookups.push_back(dns::ForwardedLookup{TimePoint{i}, dns::ServerId{0},
                                           "d" + std::to_string(i)});
  }
  std::istringstream is(encode(lookups, 1));  // one tuple (and domain)/block
  BlockReader reader(is);
  while (reader.next()) {
  }
  ASSERT_EQ(reader.domains().size(), lookups.size());
  for (std::size_t i = 0; i < lookups.size(); ++i) {
    EXPECT_EQ(reader.domains()[i], lookups[i].domain) << "id " << i;
  }

  std::istringstream is2(encode(lookups, 1));
  EXPECT_EQ(read_blocks(is2), lookups);
}

TEST(TraceBlockTest, DomainTableGrowsAmortizedAcrossOneDomainBlocks) {
  // Every one-tuple block interns a new domain. The table must re-seat
  // O(log n) times in all, not once per block (an exact reserve per block
  // copies the whole table every time: quadratic in the trace), and a view
  // taken right after its block must still read its domain at the end.
  constexpr std::size_t kBlocks = 4096;
  std::ostringstream os;
  BlockWriter writer(os, 1);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    writer.append(TimePoint{static_cast<std::int64_t>(i)}, dns::ServerId{0},
                  "grow" + std::to_string(i) + ".example");
  }
  writer.finish();
  ASSERT_EQ(writer.blocks_written(), kBlocks);

  std::istringstream is(os.str());
  BlockReader reader(is);
  std::vector<std::string_view> views;
  std::size_t moves = 0;
  const std::string_view* table = nullptr;
  while (const auto block = reader.next()) {
    ASSERT_EQ(block->size(), 1u);
    if (reader.domains().data() != table) {
      ++moves;
      table = reader.domains().data();
    }
    views.push_back(reader.domains()[block->domain[0]]);
  }
  ASSERT_EQ(views.size(), kBlocks);
  EXPECT_LE(moves, 2 * 12u);  // 2 log2(4096)
  for (std::size_t i = 0; i < kBlocks; ++i) {
    ASSERT_EQ(views[i], "grow" + std::to_string(i) + ".example") << "id " << i;
    EXPECT_EQ(views[i].data(), reader.domains()[i].data()) << "id " << i;
  }
}

TEST(TraceBlockTest, AlternatingBlockSizesDecodeEveryTuple) {
  // Long, short, long: the payload buffer keeps its high-water size, so a
  // short block reads into its front and the next long block reuses it
  // (the longest one grows it). Every block must still decode exactly.
  const auto lookups = sample_trace(2400, 29, 500);
  const std::size_t sizes[] = {700, 3, 500, 1, 900, 2, 294};
  std::ostringstream os;
  BlockWriter writer(os, kDefaultBlockTuples);
  std::size_t next = 0;
  for (const std::size_t size : sizes) {
    for (std::size_t i = 0; i < size; ++i) writer.append(lookups[next++]);
    writer.flush_block();
  }
  writer.finish();
  ASSERT_EQ(next, lookups.size());

  std::istringstream is(os.str());
  BlockReader reader(is);
  std::vector<dns::ForwardedLookup> decoded;
  std::size_t index = 0;
  while (const auto block = reader.next()) {
    ASSERT_LT(index, std::size(sizes));
    EXPECT_EQ(block->size(), sizes[index++]);
    for (std::size_t i = 0; i < block->size(); ++i) {
      decoded.push_back(dns::ForwardedLookup{
          TimePoint{block->t_ms[i]}, dns::ServerId{block->server[i]},
          std::string(reader.domains()[block->domain[i]])});
    }
  }
  EXPECT_EQ(index, std::size(sizes));
  EXPECT_EQ(decoded, lookups);
}

TEST(TraceBlockTest, WriterRejectsOversizedBlockTuples) {
  // block_tuples above the per-block payload budget would truncate the u32
  // header fields; the constructor must refuse it up front.
  std::ostringstream os;
  EXPECT_THROW(BlockWriter writer(os, std::size_t{1} << 30), ConfigError);
}

TEST(TraceBlockTest, TextBinaryTextIsByteIdentity) {
  const auto lookups = sample_trace(500, 17);
  std::ostringstream text;
  write_observable(text, lookups);

  std::istringstream text_in(text.str());
  std::ostringstream binary;
  BlockWriter writer(binary, 128);
  for_each_observable(text_in, [&writer](const dns::ForwardedLookup& l) {
    writer.append(l);
  });
  writer.finish();

  std::istringstream binary_in(binary.str());
  std::ostringstream text_again;
  std::uint64_t written = 0;
  for_each_block(binary_in, [&](const dns::LookupColumns& block,
                                std::span<const std::string_view> table) {
    write_observable(text_again, block, table, written);
    written += block.size();
  });
  EXPECT_EQ(text_again.str(), text.str());
}

TEST(TraceBlockTest, MidDomainCrConvertsBothWays) {
  // The text reader keeps a CR that is not a line's last byte, so the
  // binary writer and the text writer carry it too: text → binary → text
  // is still the identity.
  const std::string text = "1000\t0\tcr\rinside.example\n2000\t1\tok.example\n";
  std::istringstream text_in(text);
  std::ostringstream binary;
  BlockWriter writer(binary);
  for_each_observable(text_in, [&writer](const dns::ForwardedLookup& l) {
    writer.append(l);
  });
  writer.finish();
  EXPECT_EQ(writer.tuples_written(), 2u);

  std::istringstream binary_in(binary.str());
  std::ostringstream text_again;
  for_each_block(binary_in, [&](const dns::LookupColumns& block,
                                std::span<const std::string_view> table) {
    write_observable(text_again, block, table, 0);
  });
  EXPECT_EQ(text_again.str(), text);
}

TEST(TraceBlockTest, BinaryIsSmallerThanText) {
  const auto lookups = sample_trace(5000, 19);
  std::ostringstream text;
  write_observable(text, lookups);
  EXPECT_LT(encode(lookups).size(), text.str().size());
}

TEST(TraceBlockTest, WriterRejectsBadDomains) {
  std::ostringstream os;
  BlockWriter writer(os);
  EXPECT_THROW(writer.append(TimePoint{0}, dns::ServerId{0}, ""), DataError);
  EXPECT_THROW(writer.append(TimePoint{0}, dns::ServerId{0},
                             std::string(70'000, 'a')),
               DataError);
}

TEST(TraceBlockTest, WriterRejectsDomainsTextCannotCarry) {
  // A tab or newline anywhere in a new domain, or a CR at its end: the
  // binary trace must not carry what converting it to text would turn into
  // extra records or fields, or lose to the CRLF rule. The rejected tuple
  // leaves nothing behind.
  std::ostringstream os;
  BlockWriter writer(os);
  writer.append(TimePoint{1000}, dns::ServerId{0}, "ok.example");
  for (const std::string bad :
       {"x.example\n2500\t7\tinjected.example", "a\tb.example",
        "c.example\r", "\nd.example"}) {
    try {
      writer.append(TimePoint{2000}, dns::ServerId{1}, bad);
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("BlockWriter: tuple 2: domain '"),
                std::string::npos)
          << e.what();
    }
  }
  writer.append(TimePoint{3000}, dns::ServerId{1}, "ok.example");
  writer.finish();
  EXPECT_EQ(writer.tuples_written(), 2u);
  EXPECT_EQ(writer.domain_count(), 1u);
  std::istringstream is(os.str());
  const auto decoded = read_blocks(is);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[1].timestamp, TimePoint{3000});
}

TEST(TraceBlockTest, WriterReportsFullDisk) {
  // A streambuf that accepts nothing: every byte "written" is lost, as on a
  // full disk. The very first write (the file header) must already throw.
  struct FailingBuf : std::streambuf {
    int_type overflow(int_type) override { return traits_type::eof(); }
  } buf;
  std::ostream os(&buf);
  EXPECT_THROW(BlockWriter writer(os), DataError);

  // And a disk that fills up mid-file: header fits, blocks don't.
  struct QuotaBuf : std::streambuf {
    std::size_t quota = 16;
    int_type overflow(int_type ch) override {
      if (quota == 0) return traits_type::eof();
      --quota;
      return ch;
    }
  } quota_buf;
  std::ostream quota_os(&quota_buf);
  BlockWriter writer(quota_os);
  writer.append(TimePoint{0}, dns::ServerId{0}, "a.com");
  EXPECT_THROW(writer.finish(), DataError);
}

TEST(TraceBlockTest, IsBlockStreamPeeksWithoutConsuming) {
  std::istringstream binary(encode(sample_trace(10)));
  EXPECT_TRUE(is_block_stream(binary));
  EXPECT_EQ(binary.tellg(), 0);
  EXPECT_EQ(read_blocks(binary).size(), 10u);  // the whole magic is still there

  for (const char* line : {"1000\t0\ta.com\n", "-5\t0\ta.com\n", "\n"}) {
    std::istringstream text(line);
    EXPECT_FALSE(is_block_stream(text)) << line;
    EXPECT_EQ(text.tellg(), 0) << line;
    EXPECT_EQ(read_observable(text).size(), line[0] == '\n' ? 0u : 1u) << line;
  }

  std::istringstream empty("");
  EXPECT_FALSE(is_block_stream(empty));
  EXPECT_TRUE(read_observable(empty).empty());
}

// --- corruption and truncation --------------------------------------------

TEST(TraceBlockTest, RejectsGarbageAndWrongVersion) {
  {
    std::istringstream is("this is not a block file at all");
    EXPECT_THROW(BlockReader reader(is), DataError);
  }
  {
    std::istringstream is("");
    EXPECT_THROW(BlockReader reader(is), DataError);
  }
  {
    std::string file = encode(sample_trace(4));
    file[8] = 2;  // version field
    std::istringstream is(file);
    try {
      BlockReader reader(is);
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
}

TEST(TraceBlockTest, TruncationAnywhereIsALocatedError) {
  const std::string file = encode(sample_trace(100), 32);
  // Every proper prefix either decodes fewer blocks *and then throws*, or
  // throws immediately — it never reads as a complete shorter trace, and
  // never crashes. (A prefix ending exactly at a block boundary is the one
  // legitimate shorter trace; cutting inside tuple payload can't produce
  // it because payloads are non-empty.)
  for (std::size_t cut = 0; cut < file.size(); cut += 7) {
    std::istringstream is(file.substr(0, cut));
    bool threw = false;
    std::size_t tuples = 0;
    try {
      tuples = read_blocks(is).size();
    } catch (const DataError&) {
      threw = true;
    }
    if (!threw) {
      EXPECT_EQ(tuples % 32, 0u) << "cut at " << cut;
    }
  }
}

TEST(TraceBlockTest, EveryHeaderBitFlipErrorsNeverCrashes) {
  const std::string file = encode(sample_trace(64), 64);
  // File header (16 bytes) + first block header (32 bytes): flip every bit
  // of every byte; each flip must surface as DataError (bad magic, bad
  // version, checksum mismatch, ...) — never a crash and never a silent
  // success with different framing.
  for (std::size_t byte = 0; byte < 48; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = file;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      std::istringstream is(corrupt);
      EXPECT_THROW((void)read_blocks(is), DataError)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(TraceBlockTest, PayloadBitFlipsNeverCrash) {
  // Payload bytes are not checksummed (the hot path stays a straight copy),
  // so a flip may yield different-but-valid tuples; it must still never
  // crash, hang, or index outside the string table.
  const std::string file = encode(sample_trace(64, 23, 8), 64);
  for (std::size_t byte = 48; byte < file.size(); ++byte) {
    std::string corrupt = file;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x10);
    std::istringstream is(corrupt);
    try {
      const auto decoded = read_blocks(is);
      EXPECT_LE(decoded.size(), 64u);
    } catch (const DataError&) {
      // a loud rejection is equally acceptable
    }
  }
}

TEST(TraceBlockTest, ReadErrorIsNotEof) {
  // A streambuf that throws mid-payload: the reader must report an I/O
  // error (badbit), not a truncated-but-clean trace.
  const std::string file = encode(sample_trace(100));
  struct ThrowingBuf : std::stringbuf {
    explicit ThrowingBuf(const std::string& s, std::size_t limit)
        : std::stringbuf(s.substr(0, limit)) {}
    int_type underflow() override {
      if (gptr() == egptr()) throw std::runtime_error("disk error");
      return std::stringbuf::underflow();
    }
  } buf(file, file.size() / 2);
  std::istream is(&buf);
  try {
    (void)read_blocks(is);
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("I/O error"), std::string::npos);
  }
}

}  // namespace
}  // namespace botmeter::trace

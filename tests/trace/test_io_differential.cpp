// The chunked text reader against the line-at-a-time reader it replaced.
//
// `reference` below is the earlier std::getline reader of trace/io.cpp,
// kept verbatim. Every input here goes through both, and through several
// kinds of source (one buffer holding everything, small and odd-sized get
// areas, one line per refill, no get area at all): they must deliver the
// same records in the same order, return the same count, and either both
// succeed or both fail with the same what(). The inputs straddle the
// reader's 64 KiB refill boundary at every offset, carry lines longer than
// the buffer, CRLF pairs split across a refill, blank runs, NULs and
// boundary-width numbers, and seeded mutations of generated traces insert,
// delete or flip the bytes the grammar turns on. This is the text parser's
// mutation driver; the ASan+UBSan job runs it with -D_GLIBCXX_ASSERTIONS.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <functional>
#include <istream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trace/io.hpp"

namespace botmeter::trace {
namespace reference {

// --- the std::getline reader, verbatim ----------------------------------

[[noreturn]] void malformed(std::size_t line_no, std::string_view reason,
                            std::string_view line) {
  throw DataError("trace parse error at line " + std::to_string(line_no) +
                  ": " + std::string(reason) + " in '" + std::string(line) +
                  "'");
}

void split_tabs(std::string_view line, std::span<std::string_view> fields,
                std::size_t line_no) {
  std::size_t i = 0;
  std::string_view rest = line;
  while (true) {
    const std::size_t tab = rest.find('\t');
    if (i == fields.size()) {
      malformed(line_no, "too many fields (expected " +
                             std::to_string(fields.size()) + ")", line);
    }
    if (tab == std::string_view::npos) {
      fields[i++] = rest;
      break;
    }
    fields[i++] = rest.substr(0, tab);
    rest.remove_prefix(tab + 1);
  }
  if (i != fields.size()) {
    malformed(line_no, "truncated record (" + std::to_string(i) + " of " +
                           std::to_string(fields.size()) + " fields)", line);
  }
}

template <typename T>
void parse_int_field(std::string_view s, T& out, std::string_view what,
                     std::size_t line_no, std::string_view line) {
  if (!s.empty() && s.front() == '+') {
    malformed(line_no, "non-numeric " + std::string(what) + " '" +
                           std::string(s) + "'", line);
  }
  const auto* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, out);
  const bool negative_into_unsigned =
      std::is_unsigned_v<T> && !s.empty() && s.front() == '-';
  if (ec == std::errc::result_out_of_range || negative_into_unsigned) {
    malformed(line_no, "out-of-range " + std::string(what) + " '" +
                           std::string(s) + "'", line);
  }
  if (ec != std::errc{} || ptr != end) {
    malformed(line_no, "non-numeric " + std::string(what) + " '" +
                           std::string(s) + "'", line);
  }
}

bool normalize_line(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return !line.empty();
}

void check_read_stream(const std::istream& is, std::size_t line_no) {
  if (is.bad()) {
    throw DataError("trace read error after line " + std::to_string(line_no) +
                    ": stream I/O failure (not EOF) — trace is truncated");
  }
}

dns::ForwardedLookup parse_observable_line(std::string_view line,
                                           std::size_t line_no) {
  std::string_view fields[3];
  split_tabs(line, fields, line_no);
  std::int64_t t_ms = 0;
  std::uint32_t server = 0;
  parse_int_field(fields[0], t_ms, "timestamp", line_no, line);
  parse_int_field(fields[1], server, "server id", line_no, line);
  if (fields[2].empty()) malformed(line_no, "empty domain", line);
  return dns::ForwardedLookup{TimePoint{t_ms}, dns::ServerId{server},
                              std::string(fields[2])};
}

std::vector<botnet::RawRecord> read_raw(std::istream& is) {
  std::vector<botnet::RawRecord> records;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (!normalize_line(line)) continue;
    std::string_view fields[4];
    split_tabs(line, fields, line_no);
    std::int64_t t_ms = 0;
    std::uint32_t client = 0;
    parse_int_field(fields[0], t_ms, "timestamp", line_no, line);
    parse_int_field(fields[1], client, "client id", line_no, line);
    if (fields[2].empty()) malformed(line_no, "empty domain", line);
    dns::Rcode rcode;
    if (fields[3] == "A") {
      rcode = dns::Rcode::kAddress;
    } else if (fields[3] == "NX") {
      rcode = dns::Rcode::kNxDomain;
    } else {
      malformed(line_no, "unknown rcode '" + std::string(fields[3]) + "'",
                line);
    }
    records.push_back(botnet::RawRecord{TimePoint{t_ms}, dns::ClientId{client},
                                        std::string(fields[2]), rcode});
  }
  check_read_stream(is, line_no);
  return records;
}

std::size_t for_each_observable(
    std::istream& is,
    const std::function<void(const dns::ForwardedLookup&)>& sink) {
  std::string line;
  std::size_t line_no = 0;
  std::size_t delivered = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (!normalize_line(line)) continue;
    sink(parse_observable_line(line, line_no));
    ++delivered;
  }
  check_read_stream(is, line_no);
  return delivered;
}

}  // namespace reference

namespace {

constexpr std::size_t kChunk = std::size_t{1} << 16;  // the reader's refill

// --- sources ------------------------------------------------------------

/// A get area of at most `step` bytes per underflow (odd sizes land refill
/// boundaries everywhere).
class SteppedSource : public std::streambuf {
 public:
  SteppedSource(std::string text, std::size_t step)
      : text_(std::move(text)), step_(step) {}

 protected:
  int_type underflow() override {
    if (gptr() != egptr()) return traits_type::to_int_type(*gptr());
    if (pos_ == text_.size()) return traits_type::eof();
    const std::size_t n = std::min(step_, text_.size() - pos_);
    char* first = text_.data() + pos_;
    setg(first, first, first + n);
    pos_ += n;
    return traits_type::to_int_type(*first);
  }

 private:
  std::string text_;
  std::size_t step_;
  std::size_t pos_ = 0;
};

/// No get area at all: in_avail() is 0 even after a peek, as for
/// stdio-synced std::cin, so the reader takes the std::getline fallback.
class UnbufferedSource : public std::streambuf {
 public:
  explicit UnbufferedSource(std::string text) : text_(std::move(text)) {}

 protected:
  int_type underflow() override {
    return pos_ < text_.size() ? traits_type::to_int_type(text_[pos_])
                               : traits_type::eof();
  }
  int_type uflow() override {
    return pos_ < text_.size() ? traits_type::to_int_type(text_[pos_++])
                               : traits_type::eof();
  }

 private:
  std::string text_;
  std::size_t pos_ = 0;
};

/// A live feed: one line per underflow, counting the lines it was asked for.
class DripSource : public std::streambuf {
 public:
  explicit DripSource(std::vector<std::string> lines)
      : lines_(std::move(lines)) {}
  [[nodiscard]] std::size_t served() const { return next_; }

 protected:
  int_type underflow() override {
    if (gptr() != egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == lines_.size()) return traits_type::eof();
    std::string& line = lines_[next_++];
    setg(line.data(), line.data(), line.data() + line.size());
    return traits_type::to_int_type(line.front());
  }

 private:
  std::vector<std::string> lines_;
  std::size_t next_ = 0;
};

enum class Source { kString, kStep1, kStep7, kStep4093, kUnbuffered };
constexpr Source kSources[] = {Source::kString, Source::kStep1, Source::kStep7,
                               Source::kStep4093, Source::kUnbuffered};

std::unique_ptr<std::streambuf> make_source(Source kind,
                                            const std::string& text) {
  switch (kind) {
    case Source::kString:
      return std::make_unique<std::stringbuf>(text);
    case Source::kStep1:
      return std::make_unique<SteppedSource>(text, 1);
    case Source::kStep7:
      return std::make_unique<SteppedSource>(text, 7);
    case Source::kStep4093:
      return std::make_unique<SteppedSource>(text, 4093);
    case Source::kUnbuffered:
      return std::make_unique<UnbufferedSource>(text);
  }
  return nullptr;
}

// --- outcomes -------------------------------------------------------------

template <typename Record>
struct Outcome {
  std::vector<Record> records;
  std::size_t count = 0;  // the reader's return value (records on error)
  std::string error;      // what() of the DataError, empty on success
};

Outcome<dns::ForwardedLookup> observe(
    const std::function<std::size_t(
        std::istream&, const std::function<void(const dns::ForwardedLookup&)>&)>&
        reader,
    std::streambuf& source) {
  Outcome<dns::ForwardedLookup> out;
  std::istream is(&source);
  try {
    out.count = reader(is, [&out](const dns::ForwardedLookup& l) {
      out.records.push_back(l);
    });
  } catch (const DataError& e) {
    out.count = out.records.size();
    out.error = e.what();
  }
  return out;
}

Outcome<botnet::RawRecord> observe_raw(
    const std::function<std::vector<botnet::RawRecord>(std::istream&)>& reader,
    std::streambuf& source) {
  Outcome<botnet::RawRecord> out;
  std::istream is(&source);
  try {
    out.records = reader(is);
    out.count = out.records.size();
  } catch (const DataError& e) {
    out.error = e.what();
  }
  return out;
}

/// Both readers over `text`, the reference on a string source and the new
/// reader on every kind of source; returns the reference outcome.
Outcome<dns::ForwardedLookup> expect_same(const std::string& text,
                                          const std::string& label) {
  std::stringbuf ref_buf(text);
  const auto ref = observe(reference::for_each_observable, ref_buf);
  for (const Source kind : kSources) {
    const auto source = make_source(kind, text);
    const auto got = observe(trace::for_each_observable, *source);
    SCOPED_TRACE(label + " source " + std::to_string(static_cast<int>(kind)));
    EXPECT_EQ(got.error, ref.error);
    EXPECT_EQ(got.count, ref.count);
    EXPECT_TRUE(got.records == ref.records)
        << got.records.size() << " records vs " << ref.records.size();
  }
  return ref;
}

void expect_same_raw(const std::string& text, const std::string& label) {
  std::stringbuf ref_buf(text);
  const auto ref = observe_raw(reference::read_raw, ref_buf);
  for (const Source kind : kSources) {
    const auto source = make_source(kind, text);
    const auto got = observe_raw(trace::read_raw, *source);
    SCOPED_TRACE(label + " source " + std::to_string(static_cast<int>(kind)));
    EXPECT_EQ(got.error, ref.error);
    EXPECT_TRUE(got.records == ref.records);
  }
}

std::string record(std::int64_t t, std::uint32_t server,
                   const std::string& domain, const char* eol = "\n") {
  return std::to_string(t) + "\t" + std::to_string(server) + "\t" + domain +
         eol;
}

/// `n` well-formed records, some CRLF, some behind blank lines.
std::string generated_trace(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string text;
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<std::int64_t>(rng.uniform(2'000'000)) - 1000;
    const auto server = static_cast<std::uint32_t>(rng.uniform(64));
    const std::string domain =
        "h" + std::to_string(rng.uniform(5000)) + ".example";
    if (rng.uniform(20) == 0) text += rng.uniform(2) == 0 ? "\n" : "\r\n";
    text += record(t, server, domain, rng.uniform(4) == 0 ? "\r\n" : "\n");
  }
  return text;
}

/// A filler of complete records exactly `bytes` long (bytes >= 8).
std::string filler(std::size_t bytes) {
  std::string text;
  while (text.size() + 64 < bytes) text += record(1000, 1, "fill.example");
  const std::size_t rest = bytes - text.size();  // 8 ..< 72 bytes
  text += "5\t2\t" + std::string(rest - 5, 'f') + "\n";
  return text;
}

// --- tests ----------------------------------------------------------------

TEST(TraceIoDifferentialTest, RecordsAtEveryOffsetAroundTheRefillBoundary) {
  const std::string tail =
      record(-7, 3, "boundary.example", "\r\n") + "\n\n\r\n" +
      record(123456789012345678, 999999999, "wide.example") +
      record(0, 0, "last.example", "");
  for (std::size_t at = kChunk - 80; at <= kChunk + 8; ++at) {
    const std::string text = filler(at) + tail;
    const auto ref = expect_same(text, "offset " + std::to_string(at));
    EXPECT_TRUE(ref.error.empty()) << ref.error;
  }
}

TEST(TraceIoDifferentialTest, CrlfSplitAcrossARefill) {
  // The CR is the last byte of the first chunk, its LF the first of the
  // next; and the same with a blank CRLF line.
  const std::string line = record(42, 1, "split.example");
  std::string text = filler(kChunk - line.size()) + line;
  text.insert(kChunk - 1, "\r");
  ASSERT_EQ(text[kChunk - 1], '\r');
  ASSERT_EQ(text[kChunk], '\n');
  const auto ref = expect_same(text + record(43, 2, "after.example"), "crlf");
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  EXPECT_EQ(ref.records.at(ref.records.size() - 2).domain, "split.example");

  std::string blank = filler(kChunk - 1) + "\r\n" + record(1, 1, "b.example");
  ASSERT_EQ(blank[kChunk - 1], '\r');
  expect_same(blank, "blank crlf");
}

TEST(TraceIoDifferentialTest, LinesLongerThanTheBuffer) {
  const std::string huge(3 * kChunk + 17, 'd');
  expect_same(record(1, 1, huge) + record(2, 2, "small.example") +
                  record(3, 3, huge, ""),
              "long domains");
  // An over-long malformed line still names its line, in full.
  const auto ref = expect_same(
      record(1, 1, "a.example") + "1\t" + std::string(kChunk + 5, '9') + "\tx\n",
      "long server id");
  EXPECT_NE(ref.error.find("line 2: out-of-range server id"), std::string::npos)
      << ref.error.substr(0, 80);
}

TEST(TraceIoDifferentialTest, BlankRunsTailsNulsAndNumberEdges) {
  const std::vector<std::string> inputs = {
      "",
      "\n",
      "\n\n\n",
      "\r\n\r\n",
      "\r",
      std::string(kChunk + 3, '\n') + record(1, 1, "after.blanks"),
      "1\t1\ta.example",    // no final newline
      "1\t1\ta.example\r",  // CR-terminated tail
      "1\t1\ta.example\r\r\n",
      std::string("1\t1\tnul\0inside.example\n", 24),
      std::string("1\t1\t\0\n", 6),
      "-0\t0\tzero.example\n",
      "0000000000000000001\t0000000001\tlead.example\n",
      "-000123\t007\tlead.example\n",
      "999999999999999999\t999999999\tmax18.example\n",
      "-999999999999999999\t4294967295\tmax.example\n",
      "9223372036854775807\t4294967295\tint64max.example\n",
      "-9223372036854775808\t0\tint64min.example\n",
      "9223372036854775808\t0\tover.example\n",
      "-9223372036854775809\t0\tunder.example\n",
      "12345678901234567890\t0\ttwenty.example\n",
      "1\t4294967296\tserver.over\n",
      "1\t00000000004294967295\tserver.lead\n",
      "-\t0\tminus.only\n",
      "1\t-0\tminus.zero.server\n",
      "--1\t0\tdouble.minus\n",
      "1-\t0\ttrailing.minus\n",
      " 1\t0\tspace.example\n",
      "1\t0\t \n",
      "1\t0\t\r\n",
      "1\t0\tcr\rinside\n",
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_same(inputs[i], "input " + std::to_string(i));
    expect_same(filler(kChunk - 3) + inputs[i], "late input " + std::to_string(i));
  }
}

TEST(TraceIoDifferentialTest, EveryErrorKindMatches) {
  // The cases of TraceIoTest.ErrorsNameTheOffendingField and the rest of
  // the leading-'+' and field-count kinds, early and past a refill.
  const std::vector<std::string> inputs = {
      "12x4\t0\ta.com",
      "1000\tabc\ta.com",
      "1000\t99999999999999\ta.com",
      "1000\t-1\ta.com",
      "1000\t0\ta.com\n1000\t0",
      "1000\t0\ta.com\textra",
      "1000\t0\t",
      "+1000\t0\ta.com",
      "1000\t+0\ta.com",
      "1000",
      "\t\t",
      "1000\t0\ta.com\t",
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto early = expect_same(inputs[i], "error " + std::to_string(i));
    EXPECT_FALSE(early.error.empty()) << inputs[i];
    const auto late =
        expect_same(filler(kChunk - 5) + inputs[i], "late error " + std::to_string(i));
    EXPECT_FALSE(late.error.empty()) << inputs[i];
  }
}

TEST(TraceIoDifferentialTest, SeededMutationsOfAGeneratedTrace) {
  // Insert, delete or flip the bytes the grammar turns on, at random places
  // of a trace long enough to cross several refills.
  const std::string alphabet = "\t\n\r-+0123456789";
  const std::string base = generated_trace(6000, 5);
  ASSERT_GT(base.size(), 2 * kChunk);
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed);
    std::string text = base;
    const std::size_t edits = 1 + rng.uniform(3);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = rng.uniform(text.size());
      const char c = alphabet[rng.uniform(alphabet.size())];
      switch (rng.uniform(3)) {
        case 0: text.insert(text.begin() + static_cast<long>(at), c); break;
        case 1: text.erase(at, 1); break;
        default: text[at] = c;
      }
    }
    expect_same(text, "mutation seed " + std::to_string(seed));
  }
}

TEST(TraceIoDifferentialTest, RawReaderMatchesToo) {
  Rng rng(9);
  std::string base;
  for (int i = 0; i < 4000; ++i) {
    base += std::to_string(static_cast<std::int64_t>(rng.uniform(100000)) - 50) +
            "\t" + std::to_string(rng.uniform(1000)) + "\tr" +
            std::to_string(i) + ".example\t" +
            (rng.uniform(2) == 0 ? "A" : "NX") +
            (rng.uniform(5) == 0 ? "\r\n" : "\n");
  }
  ASSERT_GT(base.size(), kChunk);
  expect_same_raw(base, "raw base");
  const std::string alphabet = "\t\n\r-+0123456789ANX";
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng mut(seed);
    std::string text = base;
    const std::size_t at = mut.uniform(text.size());
    const char c = alphabet[mut.uniform(alphabet.size())];
    switch (mut.uniform(3)) {
      case 0: text.insert(text.begin() + static_cast<long>(at), c); break;
      case 1: text.erase(at, 1); break;
      default: text[at] = c;
    }
    expect_same_raw(text, "raw mutation seed " + std::to_string(seed));
  }
}

TEST(TraceIoDifferentialTest, LiveFeedLineReachesTheSinkBeforeTheNextIsRead) {
  // One line per underflow: the sink must see line k while the source has
  // served only k lines, so a piped feed is charted as it arrives.
  std::vector<std::string> lines;
  for (int i = 0; i < 50; ++i) {
    lines.push_back(record(1000 + i, static_cast<std::uint32_t>(i % 4),
                           "live" + std::to_string(i) + ".example",
                           i % 3 == 0 ? "\r\n" : "\n"));
  }
  DripSource drip(lines);
  std::istream is(&drip);
  std::size_t seen = 0;
  const std::size_t delivered =
      for_each_observable(is, [&](const dns::ForwardedLookup& l) {
        ++seen;
        EXPECT_EQ(drip.served(), seen) << l.domain;
      });
  EXPECT_EQ(delivered, lines.size());
  EXPECT_EQ(seen, lines.size());
}

TEST(TraceIoDifferentialTest, StreamWithoutAGetAreaGivesTheReferenceRecords) {
  const std::string text = generated_trace(3000, 17);
  UnbufferedSource source(text);
  ASSERT_EQ(source.in_avail(), 0);
  const auto got = observe(trace::for_each_observable, source);
  std::stringbuf ref_buf(text);
  const auto ref = observe(reference::for_each_observable, ref_buf);
  EXPECT_TRUE(got.error.empty()) << got.error;
  EXPECT_EQ(got.count, 3000u);
  EXPECT_TRUE(got.records == ref.records);
}

TEST(TraceIoDifferentialTest, CleanEndLeavesTheStreamAsGetlineDoes) {
  for (const std::string& text :
       {std::string(""), std::string("1\t1\ta.example\n"),
        std::string("1\t1\ta.example"), std::string("\n\n"),
        filler(kChunk + 9)}) {
    for (const Source kind : kSources) {
      const auto ref_source = make_source(kind, text);
      std::istream ref_is(ref_source.get());
      (void)reference::for_each_observable(ref_is, [](const auto&) {});
      const auto source = make_source(kind, text);
      std::istream is(source.get());
      (void)for_each_observable(is, [](const auto&) {});
      EXPECT_EQ(is.rdstate(), ref_is.rdstate());
      EXPECT_EQ(is.rdstate(), std::ios::eofbit | std::ios::failbit);
    }
  }
}

}  // namespace
}  // namespace botmeter::trace

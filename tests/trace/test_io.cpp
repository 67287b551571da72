#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace botmeter::trace {
namespace {

TEST(TraceIoTest, RawRoundTrip) {
  std::vector<botnet::RawRecord> records{
      {TimePoint{1000}, dns::ClientId{7}, "abc.com", dns::Rcode::kNxDomain},
      {TimePoint{2500}, dns::ClientId{9}, "def.net", dns::Rcode::kAddress},
  };
  std::stringstream ss;
  write_raw(ss, records);
  const auto parsed = read_raw(ss);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].t, TimePoint{1000});
  EXPECT_EQ(parsed[0].client, dns::ClientId{7});
  EXPECT_EQ(parsed[0].domain, "abc.com");
  EXPECT_EQ(parsed[0].rcode, dns::Rcode::kNxDomain);
  EXPECT_EQ(parsed[1].rcode, dns::Rcode::kAddress);
}

TEST(TraceIoTest, ObservableRoundTrip) {
  std::vector<dns::ForwardedLookup> lookups{
      {TimePoint{1000}, dns::ServerId{0}, "abc.com"},
      {TimePoint{-500}, dns::ServerId{3}, "xyz.ru"},
  };
  std::stringstream ss;
  write_observable(ss, lookups);
  const auto parsed = read_observable(ss);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], lookups[0]);
  EXPECT_EQ(parsed[1], lookups[1]);
}

TEST(TraceIoTest, EmptyStreams) {
  std::stringstream ss;
  EXPECT_TRUE(read_raw(ss).empty());
  std::stringstream ss2;
  EXPECT_TRUE(read_observable(ss2).empty());
}

TEST(TraceIoTest, BlankLinesSkipped) {
  std::stringstream ss("\n1000\t0\tabc.com\n\n");
  const auto parsed = read_observable(ss);
  EXPECT_EQ(parsed.size(), 1u);
}

TEST(TraceIoTest, MalformedLinesRejectedWithLineNumber) {
  {
    std::stringstream ss("1000\t0\tabc.com\nnot-a-number\t0\tx.com");
    try {
      (void)read_observable(ss);
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
  }
  {
    std::stringstream ss("1000\t7\tabc.com\tMAYBE");
    EXPECT_THROW((void)read_raw(ss), DataError);
  }
  {
    std::stringstream ss("1000\t7");  // missing fields
    EXPECT_THROW((void)read_observable(ss), DataError);
  }
  {
    std::stringstream ss("1000\t7\tabc.com\tA\textra");  // too many fields
    EXPECT_THROW((void)read_raw(ss), DataError);
  }
  {
    std::stringstream ss("1000\t7\t\tA");  // empty domain
    EXPECT_THROW((void)read_raw(ss), DataError);
  }
}

TEST(TraceIoTest, ErrorsNameTheOffendingField) {
  const auto message_for = [](const std::string& text) -> std::string {
    std::stringstream ss(text);
    try {
      (void)read_observable(ss);
    } catch (const DataError& e) {
      return e.what();
    }
    return "";
  };
  // Non-numeric vs out-of-range are distinct diagnoses, and each names the
  // field, the value, and the line.
  EXPECT_NE(message_for("12x4\t0\ta.com").find("non-numeric timestamp '12x4'"),
            std::string::npos);
  EXPECT_NE(message_for("1000\tabc\ta.com").find("non-numeric server id 'abc'"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t99999999999999\ta.com")
                .find("out-of-range server id '99999999999999'"),
            std::string::npos);
  // A negative id into an unsigned field is a range problem, not junk.
  EXPECT_NE(message_for("1000\t-1\ta.com").find("out-of-range server id '-1'"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t0\ta.com\n1000\t0").find(
                "truncated record (2 of 3 fields)"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t0\ta.com\n1000\t0").find("line 2"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t0\ta.com\textra").find(
                "too many fields (expected 3)"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t0\t").find("empty domain"), std::string::npos);
}

TEST(TraceIoTest, RawErrorsNameTheOffendingField) {
  const auto message_for = [](const std::string& text) -> std::string {
    std::stringstream ss(text);
    try {
      (void)read_raw(ss);
    } catch (const DataError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_for("1000\t-7\ta.com\tA").find("out-of-range client id"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t7\ta.com\tMAYBE").find("unknown rcode 'MAYBE'"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t7\ta.com").find("truncated record"),
            std::string::npos);
}

TEST(TraceIoTest, CrlfLinesTolerated) {
  std::stringstream ss("1000\t0\tabc.com\r\n2000\t1\tdef.com\r\n");
  const auto parsed = read_observable(ss);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].domain, "abc.com");
  EXPECT_EQ(parsed[1].forwarder, dns::ServerId{1});

  std::stringstream raw("1000\t7\tabc.com\tNX\r\n");
  const auto raw_parsed = read_raw(raw);
  ASSERT_EQ(raw_parsed.size(), 1u);
  EXPECT_EQ(raw_parsed[0].domain, "abc.com");
}

TEST(TraceIoTest, ForEachObservableStreamsWithoutMaterialising) {
  std::stringstream ss("\n1000\t0\ta.com\n\n2000\t1\tb.com\n");
  std::vector<dns::ForwardedLookup> seen;
  const std::size_t delivered = for_each_observable(
      ss, [&seen](const dns::ForwardedLookup& l) { seen.push_back(l); });
  EXPECT_EQ(delivered, 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (dns::ForwardedLookup{TimePoint{1000}, dns::ServerId{0},
                                           "a.com"}));
  EXPECT_EQ(seen[1], (dns::ForwardedLookup{TimePoint{2000}, dns::ServerId{1},
                                           "b.com"}));

  // Errors carry the physical line number even with blanks interleaved.
  std::stringstream bad("1000\t0\ta.com\n\nbroken");
  std::size_t before_error = 0;
  try {
    (void)for_each_observable(
        bad, [&before_error](const dns::ForwardedLookup&) { ++before_error; });
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  EXPECT_EQ(before_error, 1u);  // everything before the bad line was delivered
}

TEST(TraceIoTest, NegativeTimestampsSupported) {
  std::stringstream ss("-250\t2\tearly.com");
  const auto parsed = read_observable(ss);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].timestamp.millis(), -250);
}

TEST(TraceIoTest, LeadingPlusSignRejected) {
  // Numeric fields are exactly digits-with-optional-minus: "+1000" is a
  // different spelling of a value write_* would emit as "1000", so accepting
  // it would make the text→binary→text round trip non-injective.
  {
    std::stringstream ss("+1000\t0\ta.com");
    try {
      (void)read_observable(ss);
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("non-numeric timestamp '+1000'"),
                std::string::npos);
    }
  }
  {
    std::stringstream ss("1000\t+0\ta.com");
    try {
      (void)read_observable(ss);
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("non-numeric server id '+0'"),
                std::string::npos);
    }
  }
  {
    std::stringstream ss("1000\t+7\ta.com\tA");
    EXPECT_THROW((void)read_raw(ss), DataError);
  }
}

/// A source that yields `limit` bytes of `text` and then fails like a dying
/// disk (streambuf exception → badbit), instead of signalling EOF.
struct DyingSourceBuf : std::stringbuf {
  DyingSourceBuf(const std::string& text, std::size_t limit)
      : std::stringbuf(text.substr(0, limit)) {}
  int_type underflow() override {
    if (gptr() == egptr()) throw std::runtime_error("simulated disk error");
    return std::stringbuf::underflow();
  }
};

TEST(TraceIoTest, MidReadIoFailureThrowsInsteadOfTruncating) {
  // 3 complete records, stream dies inside the third line. Silent behaviour
  // would be a "valid" 2-record trace; the reader must throw instead, naming
  // the last fully parsed line.
  const std::string text = "1000\t0\ta.com\n2000\t1\tb.com\n3000\t2\tc.com\n";
  {
    DyingSourceBuf buf(text, text.size() - 4);
    std::istream is(&buf);
    std::size_t delivered = 0;
    try {
      (void)for_each_observable(
          is, [&delivered](const dns::ForwardedLookup&) { ++delivered; });
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("stream I/O failure"), std::string::npos);
      EXPECT_NE(what.find("after line 2"), std::string::npos);
    }
    EXPECT_EQ(delivered, 2u);  // complete records were still delivered
  }
  {
    const std::string raw = "1000\t7\ta.com\tA\n2000\t8\tb.com\tNX\n";
    DyingSourceBuf buf(raw, raw.size() - 3);
    std::istream is(&buf);
    EXPECT_THROW((void)read_raw(is), DataError);
  }
  {
    // The source dies inside a line far past the reader's first 64 KiB
    // chunk: every complete line before it still reaches the sink, and the
    // error names the last of them.
    std::string big;
    for (int i = 0; i < 9000; ++i) {
      big += std::to_string(1000 + i) + "\t" + std::to_string(i % 16) +
             "\thost" + std::to_string(i) + ".example\n";
    }
    ASSERT_GT(big.size(), std::size_t{3} << 16);
    const std::size_t cut = big.find('\n', big.size() / 2 + 7) + 6;
    const auto complete = static_cast<std::size_t>(
        std::count(big.begin(), big.begin() + static_cast<long>(cut), '\n'));
    DyingSourceBuf buf(big, cut);
    std::istream is(&buf);
    std::size_t delivered = 0;
    try {
      (void)for_each_observable(
          is, [&delivered](const dns::ForwardedLookup&) { ++delivered; });
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "after line " + std::to_string(complete) + ":"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(delivered, complete);
  }
}

TEST(TraceIoTest, WritersRejectDomainsThatWouldForgeRecords) {
  // A domain holding a separator would read back as other records or
  // fields: here a second record on server 7 and a third record.
  const std::string forged = "x.example\n2500\t7\tinjected.example";
  for (const std::string& bad :
       {forged, std::string("a\tb.example"), std::string("c.example\r")}) {
    const std::vector<dns::ForwardedLookup> lookups{
        {TimePoint{1000}, dns::ServerId{0}, "ok.example"},
        {TimePoint{2000}, dns::ServerId{1}, bad}};
    std::ostringstream os;
    try {
      write_observable(os, lookups);
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("trace write error at record 2: domain '"),
                std::string::npos)
          << what;
      EXPECT_EQ(what.find('\n'), std::string::npos);  // one error line
    }
    EXPECT_EQ(os.str(), "1000\t0\tok.example\n");  // nothing of record 2

    const std::vector<botnet::RawRecord> records{
        {TimePoint{1000}, dns::ClientId{7}, bad, dns::Rcode::kAddress}};
    std::ostringstream raw;
    EXPECT_THROW(write_raw(raw, records), DataError);
    EXPECT_TRUE(raw.str().empty());
  }

  // The binary → text path names the record by its place in the trace.
  const std::vector<std::string_view> table{"ok.example", forged};
  const std::int64_t t_ms[] = {1000, 2500};
  const std::uint32_t server[] = {0, 3};
  const std::uint32_t domain[] = {0, 1};
  const dns::LookupColumns block{t_ms, server, domain};
  std::ostringstream os;
  try {
    write_observable(os, block, table, 40);
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "trace write error at record 42: domain "
                  "'x.example\\n2500\\t7\\tinjected.example'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(os.str(), "1000\t0\tok.example\n");

  // A CR that is not a domain's last byte reads back as written, so both
  // writers carry it.
  const std::vector<dns::ForwardedLookup> kept{
      {TimePoint{1000}, dns::ServerId{0}, "cr\rinside.example"}};
  std::ostringstream text;
  write_observable(text, kept);
  std::istringstream text_in(text.str());
  EXPECT_EQ(read_observable(text_in), kept);
  const std::vector<botnet::RawRecord> kept_raw{
      {TimePoint{1000}, dns::ClientId{7}, "cr\rinside.example",
       dns::Rcode::kAddress}};
  std::ostringstream raw_text;
  write_raw(raw_text, kept_raw);
  std::istringstream raw_in(raw_text.str());
  EXPECT_EQ(read_raw(raw_in), kept_raw);
}

TEST(TraceIoTest, WriteFailureIsALoudError) {
  // A sink that accepts nothing — a full disk from byte zero.
  struct FullDiskBuf : std::streambuf {
    int_type overflow(int_type) override { return traits_type::eof(); }
  };
  const std::vector<dns::ForwardedLookup> lookups{
      {TimePoint{1000}, dns::ServerId{0}, "a.com"}};
  const std::vector<botnet::RawRecord> records{
      {TimePoint{1000}, dns::ClientId{7}, "a.com", dns::Rcode::kNxDomain}};
  {
    FullDiskBuf buf;
    std::ostream os(&buf);
    try {
      write_observable(os, lookups);
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("disk full or closed stream"),
                std::string::npos);
    }
  }
  {
    FullDiskBuf buf;
    std::ostream os(&buf);
    EXPECT_THROW(write_raw(os, records), DataError);
  }
  // Writing an empty span to a healthy stream stays fine (the check must not
  // misfire on a no-op).
  std::stringstream ok;
  write_observable(ok, {});
  EXPECT_TRUE(ok.str().empty());
}

}  // namespace
}  // namespace botmeter::trace

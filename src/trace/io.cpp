#include "trace/io.hpp"

#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>
#include <type_traits>

#include "common/error.hpp"

namespace botmeter::trace {

namespace {

[[noreturn]] void malformed(std::size_t line_no, std::string_view reason,
                            std::string_view line) {
  throw DataError("trace parse error at line " + std::to_string(line_no) +
                  ": " + std::string(reason) + " in '" + std::string(line) +
                  "'");
}

/// Split `line` into exactly `fields.size()` tab-separated fields; throws a
/// located DataError naming the actual count on mismatch (truncated or
/// over-long collector lines).
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

/// Parse a full-width integer field; distinguishes junk from overflow so the
/// error names the real problem (a 2^40 "server id" is out of range, not
/// merely non-numeric).
///
/// The accepted grammar is exactly digits-with-optional-minus — no leading
/// '+', whitespace, or hex. write_* never emits anything else, and the
/// text↔binary convert round trip is only injective if read_* accepts
/// nothing else; the guard makes the contract explicit (and keeps it if the
/// parser underneath ever changes).
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

/// The lines of a text trace, handed out as views into one reused buffer.
///
/// A refill takes only what the stream already holds: a blocking peek() for
/// the first byte, then readsome() of the rest of the get area. So a live
/// feed is never read ahead of the bytes it has delivered, and each line
/// reaches the caller as soon as its '\n' lands, as with std::getline. A
/// stream that keeps no get area (in_avail() == 0 after the peek, as with
/// stdio-synced std::cin) is read one std::getline at a time instead. An
/// unfinished line moves to the buffer front across a refill, and a line
/// longer than the buffer grows it.
class LineSource {
 public:
  explicit LineSource(std::istream& is) : is_(is), buf_(kChunkBytes) {}

  /// The next line that carries a record — one trailing CR (CRLF
  /// collectors) stripped, blank lines skipped — or false at a clean end of
  /// input, which leaves the stream eofbit|failbit as std::getline does. A
  /// mid-read I/O failure (badbit) throws after every complete line was
  /// returned; the torn tail is never returned. The view is valid until the
  /// next call.
  bool next(std::string_view& line) {
    for (;;) {
      std::string_view raw;
      if (const void* nl = std::memchr(buf_.data() + scan_, '\n', end_ - scan_)) {
        const std::size_t stop =
            static_cast<std::size_t>(static_cast<const char*>(nl) - buf_.data());
        raw = std::string_view(buf_.data() + begin_, stop - begin_);
        begin_ = scan_ = stop + 1;
      } else {
        scan_ = end_;
        if (refill()) continue;
        if (begin_ == end_) return false;
        // The input ends without a final newline: the tail is a line.
        raw = std::string_view(buf_.data() + begin_, end_ - begin_);
        begin_ = scan_ = end_;
      }
      ++line_no_;
      if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
      if (raw.empty()) continue;
      line = raw;
      return true;
    }
  }

  /// 1-based physical line number of the last line returned.
  [[nodiscard]] std::size_t line_no() const { return line_no_; }

 private:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

  /// Append what the stream holds after the unfinished line; false at the
  /// end of input (a stream already at its end fails the peek again).
  bool refill() {
    if (begin_ != 0) {
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      scan_ = end_;
      begin_ = 0;
    }
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    if (std::istream::traits_type::eq_int_type(is_.peek(),
                                               std::istream::traits_type::eof())) {
      check_not_bad();
      is_.setstate(std::ios::failbit);  // where std::getline leaves a clean EOF
      return false;
    }
    if (is_.rdbuf()->in_avail() > 0) {
      end_ += static_cast<std::size_t>(is_.readsome(
          buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_)));
      return true;
    }
    std::getline(is_, unbuffered_);
    check_not_bad();
    const std::size_t bytes = unbuffered_.size() + (is_.eof() ? 0 : 1);
    if (buf_.size() - end_ < bytes) buf_.resize(end_ + bytes);
    std::memcpy(buf_.data() + end_, unbuffered_.data(), unbuffered_.size());
    if (!is_.eof()) buf_[end_ + unbuffered_.size()] = '\n';
    end_ += bytes;
    return true;
  }

  /// A failed read is either clean EOF or a mid-record I/O error (badbit —
  /// the stream lost data). The latter must never read as a shorter-but-valid
  /// trace: throw a located DataError instead.
  void check_not_bad() const {
    if (is_.bad()) {
      throw DataError("trace read error after line " +
                      std::to_string(line_no_) +
                      ": stream I/O failure (not EOF) — trace is truncated");
    }
  }

  std::istream& is_;
  std::vector<char> buf_;
  /// buf_[begin_, end_) holds unread bytes; [begin_, scan_) has no '\n'.
  std::size_t begin_ = 0;
  std::size_t scan_ = 0;
  std::size_t end_ = 0;
  std::size_t line_no_ = 0;
  /// The std::getline target for a stream without a get area.
  std::string unbuffered_;
};

/// The decimal digits starting at `p` as an unsigned value; returns where
/// they end, or nullptr when there are none or more than `max_digits` (the
/// caller's bound keeps the value from overflowing).
const char* scan_digits(const char* p, const char* end, std::size_t max_digits,
                        std::uint64_t& value) {
  const char* const first = p;
  std::uint64_t v = 0;
  while (p != end && static_cast<unsigned char>(*p - '0') < 10) {
    v = v * 10 + static_cast<unsigned char>(*p - '0');
    ++p;
  }
  if (p == first || static_cast<std::size_t>(p - first) > max_digits) {
    return nullptr;
  }
  value = v;
  return p;
}

/// The exact observable grammar: digits with an optional minus, a tab,
/// digits, a tab, then a non-empty domain with no tab. Fields short enough
/// that they cannot overflow (18 timestamp digits, 9 server digits) are
/// parsed here; any other line returns false and takes the general path,
/// which names whatever is wrong with it.
bool parse_observable_fast(std::string_view line, dns::ForwardedLookup& out) {
  const char* p = line.data();
  const char* const end = p + line.size();
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  std::uint64_t t = 0;
  p = scan_digits(p, end, 18, t);
  if (p == nullptr || p == end || *p != '\t') return false;
  std::uint64_t server = 0;
  p = scan_digits(p + 1, end, 9, server);
  if (p == nullptr || p == end || *p != '\t') return false;
  ++p;
  if (p == end || std::memchr(p, '\t', static_cast<std::size_t>(end - p))) {
    return false;
  }
  const auto t_ms = static_cast<std::int64_t>(t);
  out.timestamp = TimePoint{negative ? -t_ms : t_ms};
  out.forwarder = dns::ServerId{static_cast<std::uint32_t>(server)};
  out.domain.assign(p, static_cast<std::size_t>(end - p));
  return true;
}

/// Parse one observable line into `out`, reusing its domain's storage.
void parse_observable_line(std::string_view line, std::size_t line_no,
                           dns::ForwardedLookup& out) {
  if (parse_observable_fast(line, out)) return;
  std::string_view fields[3];
  split_tabs(line, fields, line_no);
  std::int64_t t_ms = 0;
  std::uint32_t server = 0;
  parse_int_field(fields[0], t_ms, "timestamp", line_no, line);
  parse_int_field(fields[1], server, "server id", line_no, line);
  if (fields[2].empty()) malformed(line_no, "empty domain", line);
  out.timestamp = TimePoint{t_ms};
  out.forwarder = dns::ServerId{server};
  out.domain.assign(fields[2]);
}

/// write_* never observes individual insertions; a full disk or closed pipe
/// only shows up in the stream state. Flush and check once per call so a
/// truncated output file is a loud error, never a silent one.
void check_write_stream(std::ostream& os, std::string_view what) {
  os.flush();
  if (!os) {
    throw DataError("trace write failed (" + std::string(what) +
                    "): disk full or closed stream");
  }
}

}  // namespace

void check_text_domain(std::string_view domain, std::string_view what,
                       std::uint64_t index) {
  // A CR anywhere else reads back as written; only a line's last one is
  // taken for a CRLF ending.
  if (domain.find_first_of("\t\n") == std::string_view::npos &&
      (domain.empty() || domain.back() != '\r')) {
    return;
  }
  std::string shown;
  for (const char c : domain) {
    shown += c == '\t' ? "\\t" : c == '\n' ? "\\n" : c == '\r' ? "\\r"
                                                          : std::string(1, c);
  }
  throw DataError(std::string(what) + " " + std::to_string(index) +
                  ": domain '" + shown +
                  "' holds a tab or newline or ends in a CR, which the text "
                  "codec reads as a field or record break");
}

void write_raw(std::ostream& os, std::span<const botnet::RawRecord> records) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const botnet::RawRecord& r = records[i];
    check_text_domain(r.domain, "trace write error at record", i + 1);
    os << r.t.millis() << '\t' << r.client.value() << '\t' << r.domain << '\t'
       << (r.rcode == dns::Rcode::kAddress ? "A" : "NX") << '\n';
  }
  check_write_stream(os, "raw trace");
}

void write_observable(std::ostream& os,
                      std::span<const dns::ForwardedLookup> lookups) {
  for (std::size_t i = 0; i < lookups.size(); ++i) {
    const dns::ForwardedLookup& l = lookups[i];
    check_text_domain(l.domain, "trace write error at record", i + 1);
    os << l.timestamp.millis() << '\t' << l.forwarder.value() << '\t'
       << l.domain << '\n';
  }
  check_write_stream(os, "observable trace");
}

void write_observable(std::ostream& os, const dns::LookupColumns& block,
                      std::span<const std::string_view> domains,
                      std::uint64_t first_record) {
  for (std::size_t i = 0; i < block.size(); ++i) {
    const std::string_view domain = domains[block.domain[i]];
    check_text_domain(domain, "trace write error at record",
                      first_record + i + 1);
    os << block.t_ms[i] << '\t' << block.server[i] << '\t' << domain << '\n';
  }
  check_write_stream(os, "observable trace");
}

std::vector<botnet::RawRecord> read_raw(std::istream& is) {
  std::vector<botnet::RawRecord> records;
  LineSource lines(is);
  std::string_view line;
  while (lines.next(line)) {
    const std::size_t line_no = lines.line_no();
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
  return records;
}

std::vector<dns::ForwardedLookup> read_observable(std::istream& is) {
  std::vector<dns::ForwardedLookup> lookups;
  for_each_observable(is, [&lookups](const dns::ForwardedLookup& l) {
    lookups.push_back(l);
  });
  return lookups;
}

std::size_t for_each_observable(
    std::istream& is,
    const std::function<void(const dns::ForwardedLookup&)>& sink) {
  LineSource lines(is);
  dns::ForwardedLookup lookup;
  std::size_t delivered = 0;
  std::string_view line;
  while (lines.next(line)) {
    parse_observable_line(line, lines.line_no(), lookup);
    sink(lookup);
    ++delivered;
  }
  return delivered;
}

}  // namespace botmeter::trace

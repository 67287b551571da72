// botmeter_trace_convert — round-trip between the two trace codecs.
//
// The tab-separated text format (trace/io.hpp) is the interchange codec:
// greppable, diffable, collector-friendly. The binary columnar format
// (trace/block.hpp, schema botmeter.trace_block.v1) is the hot-path codec
// botmeter_cluster and botmeter_analyze ingest at block speed. This tool
// converts either direction, streaming block-by-block / chunk-by-chunk, so
// memory stays bounded no matter how long the trace is. Converting
// text → binary → text reproduces the input byte for byte (for traces in
// the canonical form write_observable emits). The text output goes through
// trace::write_observable, which rejects a domain holding a tab or newline
// or ending in a CR (a binary trace can carry one; as text it would forge
// records), and text input through the chunked reader of trace/io.hpp.
//
// Usage:
//   botmeter_trace_convert --to binary < trace.tsv > trace.btb
//   botmeter_trace_convert --to text --in trace.btb --out trace.tsv
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "cli_util.hpp"
#include "trace/block.hpp"
#include "trace/io.hpp"

namespace {

constexpr const char* kUsage =
    "usage: botmeter_trace_convert --to binary|text [--in file] [--out file]\n"
    "         [--block-tuples n]\n"
    "converts an observable border trace between the tab-separated text\n"
    "codec (trace/io.hpp) and the binary columnar codec\n"
    "(botmeter.trace_block.v1). Reads --in or stdin, writes --out or\n"
    "stdout; both directions stream with bounded memory.\n"
    "--block-tuples sets the binary block capacity (default 65536).\n";

}  // namespace

int main(int argc, char** argv) {
  // Unsynced, std::cin keeps a buffer of its own, which the text reader
  // takes in chunks (a synced one is read one getline per line). Converted
  // records go through std::cout only; stdio writes stdout only for --help,
  // which writes nothing else.
  std::ios::sync_with_stdio(false);
  using namespace botmeter;
  try {
    tools::CliArgs args(argc, argv, {"--to", "--in", "--out", "--block-tuples"},
                        {"--help"});
    if (args.flag("--help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    const std::string to = args.value_or("--to", "");
    if (to != "binary" && to != "text") {
      throw tools::UsageError("--to must be 'binary' or 'text'");
    }

    std::ifstream in_file;
    if (auto in_path = args.value("--in")) {
      in_file.open(*in_path, std::ios::binary);
      if (!in_file) throw DataError("cannot open " + *in_path);
    }
    std::istream& in = in_file.is_open() ? in_file : std::cin;

    std::ofstream out_file;
    if (auto out_path = args.value("--out")) {
      out_file.open(*out_path, std::ios::binary);
      if (!out_file) throw DataError("cannot open " + *out_path);
    }
    std::ostream& out = out_file.is_open() ? out_file : std::cout;

    std::size_t tuples = 0;
    std::size_t blocks = 0;
    std::size_t domains = 0;
    if (to == "binary") {
      const std::int64_t block_tuples = args.int_or(
          "--block-tuples", static_cast<std::int64_t>(trace::kDefaultBlockTuples));
      if (block_tuples <= 0) {
        throw tools::UsageError("--block-tuples must be > 0");
      }
      trace::BlockWriter writer(out, static_cast<std::size_t>(block_tuples));
      tuples = trace::for_each_observable(
          in, [&writer](const dns::ForwardedLookup& l) { writer.append(l); });
      writer.finish();
      blocks = static_cast<std::size_t>(writer.blocks_written());
      domains = writer.domain_count();
    } else {
      std::uint64_t written = 0;
      tuples = trace::for_each_block(
          in, [&out, &blocks, &written](const dns::LookupColumns& block,
                                        std::span<const std::string_view> table) {
            ++blocks;
            trace::write_observable(out, block, table, written);
            written += block.size();
          });
    }

    std::fprintf(stderr, "converted %zu tuples to %s", tuples, to.c_str());
    if (to == "binary") {
      std::fprintf(stderr, " (%zu blocks, %zu distinct domains)", blocks,
                   domains);
    } else {
      std::fprintf(stderr, " (%zu blocks read)", blocks);
    }
    std::fputc('\n', stderr);
    return 0;
  } catch (const Error& e) {
    return tools::report_error(e, kUsage);
  }
}

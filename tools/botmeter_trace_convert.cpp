// botmeter_trace_convert — round-trip between the two trace codecs.
//
// The tab-separated text format (trace/io.hpp) is the interchange codec:
// greppable, diffable, collector-friendly. The binary columnar format
// (trace/block.hpp, schema botmeter.trace_block.v1) is the hot-path codec
// botmeter_cluster and botmeter_analyze ingest at block speed. This tool
// converts a trace to the other codec (the input's first byte tells which
// it holds), streaming block-by-block / chunk-by-chunk, so memory stays
// bounded no matter how long the trace is. Converting text → binary → text
// reproduces the input byte for byte (for traces in the canonical form
// write_observable emits). The text output goes through
// trace::write_observable, which rejects a domain holding a tab or newline
// or ending in a CR (a binary trace can carry one; as text it would forge
// records), and text input through the chunked reader of trace/io.hpp.
//
// Usage:
//   botmeter_trace_convert < trace.tsv > trace.btb
//   botmeter_trace_convert --in trace.btb --out trace.tsv
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
    "usage: botmeter_trace_convert [--in file] [--out file]\n"
    "         [--block-tuples n]\n"
    "converts an observable border trace to the other codec: tab-separated\n"
    "text (trace/io.hpp) to binary columnar (botmeter.trace_block.v1) and\n"
    "back, telling the input's codec by its first byte. Reads --in or stdin,\n"
    "writes --out or stdout, streaming with bounded memory.\n"
    "--block-tuples sets the binary block capacity (text input only;\n"
    "default 65536).\n";

}  // namespace

int main(int argc, char** argv) {
  // Unsynced, std::cin keeps a buffer of its own, which the text reader
  // takes in chunks (a synced one is read one getline per line). Converted
  // records go through std::cout only; stdio writes stdout only for --help,
  // which writes nothing else.
  std::ios::sync_with_stdio(false);
  using namespace botmeter;
  try {
    tools::CliArgs args(argc, argv, {"--in", "--out", "--block-tuples"},
                        {"--help"});
    if (args.flag("--help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }

    std::ifstream in_file;
    if (auto in_path = args.value("--in")) {
      in_file.open(*in_path, std::ios::binary);
      if (!in_file) throw DataError("cannot open " + *in_path);
    }
    std::istream& in = in_file.is_open() ? in_file : std::cin;
    const bool to_binary = !trace::is_block_stream(in);
    if (!to_binary && args.value("--block-tuples")) {
      throw tools::UsageError("--block-tuples applies to text input only");
    }

    std::ofstream out_file;
    if (auto out_path = args.value("--out")) {
      out_file.open(*out_path, std::ios::binary);
      if (!out_file) throw DataError("cannot open " + *out_path);
    }
    std::ostream& out = out_file.is_open() ? out_file : std::cout;

    std::size_t tuples = 0;
    std::size_t blocks = 0;
    std::size_t domains = 0;
    if (to_binary) {
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

    std::fprintf(stderr, "converted %zu tuples to %s", tuples,
                 to_binary ? "binary" : "text");
    if (to_binary) {
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

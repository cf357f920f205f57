/**
 * @file
 * Figure 11 — impact of data parsing at ingestion: throughput of
 * parsing YSB records encoded as JSON, Protocol Buffers (varints) and
 * delimited text strings, on all cores of KNL and X56, compared with
 * StreamBox-HBM's throughput over already-parsed numerical data.
 *
 * The parsers run functionally (encode/decode round-trips over real
 * YSB records); each parsed record charges the calibrated per-record
 * scalar cost of its format, scaled by the machine's scalar speed —
 * which is how the paper's two findings appear:
 *
 *  - JSON parses at ~0.13x the engine's YSB rate (a bottleneck),
 *    protobuf at ~4.4x, plain text at ~29x;
 *  - X56's big cores parse 3-4x faster than KNL's, motivating the
 *    "Xeon parses, KNL streams" hybrid-cluster deployment.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "example_args.h"
#include "ingest/generator.h"
#include "ingest/parse/parsers.h"
#include "queries/query.h"
#include "runtime/executor.h"
#include "sim/cost_model.h"
#include "sim/machine.h"

using namespace sbhbm;
using bench::Table;

namespace {

enum class Format { kJson, kProto, kText };

const char *
formatName(Format f)
{
    switch (f) {
      case Format::kJson: return "JSON";
      case Format::kProto: return "Protocol Buffers";
      case Format::kText: return "Text strings";
    }
    return "?";
}

double
costNsPerRec(Format f)
{
    switch (f) {
      case Format::kJson: return sim::cost::kParseJsonNsPerRec;
      case Format::kProto: return sim::cost::kParseProtoNsPerRec;
      case Format::kText: return sim::cost::kParseTextNsPerRec;
    }
    return 0;
}

/**
 * Parse @p total encoded YSB records on all cores of @p mcfg,
 * functionally decoding a real encoded buffer. Returns M rec/s.
 */
double
runParse(Format f, const sim::MachineConfig &mcfg, uint64_t total)
{
    // Build one encoded batch and reuse it across tasks.
    constexpr uint32_t kBatch = 20'000;
    std::vector<uint64_t> rows(kBatch * 7);
    {
        // Fill via a bundle-free path: generate rows directly.
        Rng rng(3);
        for (uint32_t i = 0; i < kBatch; ++i) {
            uint64_t *row = &rows[i * 7];
            row[0] = i;
            row[1] = rng.next();
            row[2] = rng.next();
            row[3] = rng.nextBounded(1000);
            row[4] = rng.nextBounded(5);
            row[5] = rng.nextBounded(3);
            row[6] = rng.next();
        }
    }
    std::string text;
    std::vector<uint8_t> bin;
    for (uint32_t i = 0; i < kBatch; ++i) {
        const uint64_t *row = &rows[i * 7];
        switch (f) {
          case Format::kJson:
            ingest::parse::encodeJson(row, 7, text);
            break;
          case Format::kProto:
            ingest::parse::encodeProto(row, 7, bin);
            break;
          case Format::kText:
            ingest::parse::encodeText(row, 7, text);
            break;
        }
    }

    sim::Machine machine(mcfg);
    runtime::Executor exec(machine, mcfg.cores);
    const uint64_t batches = (total + kBatch - 1) / kBatch;
    const uint64_t in_bytes = f == Format::kProto
                                  ? bin.size()
                                  : text.size();

    for (uint64_t b = 0; b < batches; ++b) {
        exec.spawn(runtime::ImpactTag::kHigh, [&, b](sim::CostLog &log) {
            // Functionally decode (first task validates every batch
            // shape; others charge the same cost — the decode is
            // identical work on identical bytes).
            if (b == 0) {
                uint64_t out[7];
                uint32_t parsed = 0;
                if (f == Format::kProto) {
                    const uint8_t *p = bin.data();
                    const uint8_t *end = p + bin.size();
                    while (p != nullptr && p < end) {
                        p = ingest::parse::parseProto(p, end, out, 7);
                        ++parsed;
                    }
                } else {
                    const char *p = text.data();
                    const char *end = p + text.size();
                    while (p != nullptr && p < end) {
                        p = f == Format::kJson
                                ? ingest::parse::parseJson(p, end, out, 7)
                                : ingest::parse::parseText(p, end, out, 7);
                        ++parsed;
                    }
                }
                sbhbm_assert(parsed >= kBatch,
                             "parser failed mid-batch: %u", parsed);
            }
            // Microbenchmark semantics (as in the paper): the
            // encoded batch is cache-resident, so the cost is pure
            // scalar decode work — no DRAM stream is charged.
            (void)in_bytes;
            log.cpu(costNsPerRec(f) * kBatch);
        });
    }
    machine.run();
    return static_cast<double>(batches) * kBatch
           / simToSeconds(machine.now()) / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t total = 10'000'000;
    if (argc > 2 || (argc > 1 && !examples::parseCount(argv[1], total)))
        return examples::usage(argv[0],
                               "[records] (a positive integer, "
                               "default 10000000)");

    // The reference line: StreamBox-HBM's YSB throughput over parsed
    // data (RDMA, all cores).
    queries::QueryConfig ysb;
    ysb.id = queries::QueryId::kYsb;
    ysb.cores = 64;
    ysb.total_records = 4'000'000;
    ysb.window_ns = 50 * kNsPerMs;
    const double engine_mrps = runQuery(ysb).throughput_mrps;

    std::printf("Fig 11 — parsing at ingestion, %llu records; "
                "StreamBox-HBM YSB reference: %.1f M rec/s\n",
                static_cast<unsigned long long>(total), engine_mrps);

    const auto knl = sim::MachineConfig::knl();
    const auto x56 = sim::MachineConfig::x56();

    Table t("Fig 11: parsing throughput, M rec/s (log axis in paper)");
    t.header({"format", "KNL", "X56", "KNL/engine"});
    double knl_rate[3], x56_rate[3];
    const Format formats[] = {Format::kJson, Format::kProto,
                              Format::kText};
    for (int i = 0; i < 3; ++i) {
        knl_rate[i] = runParse(formats[i], knl, total);
        x56_rate[i] = runParse(formats[i], x56, total);
        t.row({formatName(formats[i]), Table::num(knl_rate[i]),
               Table::num(x56_rate[i]),
               Table::num(knl_rate[i] / engine_mrps, 2)});
    }
    t.print();
    std::printf("\n");

    const double json_ratio = knl_rate[0] / engine_mrps;
    const double proto_ratio = knl_rate[1] / engine_mrps;
    const double text_ratio = knl_rate[2] / engine_mrps;

    bench::shapeCheck("JSON parses slower than the engine (~0.13x)",
                      json_ratio < 0.5);
    bench::shapeCheck("protobuf parses faster than the engine (2-8x)",
                      proto_ratio > 2.0 && proto_ratio < 8.0);
    bench::shapeCheck("text parses much faster than the engine (>15x)",
                      text_ratio > 15.0);
    bool x56_faster = true;
    for (int i = 0; i < 3; ++i) {
        const double gap = x56_rate[i] / knl_rate[i];
        x56_faster &= gap > 2.0 && gap < 6.0;
    }
    bench::shapeCheck("X56 parses 3-4x faster than KNL (all formats)",
                      x56_faster);
    return 0;
}

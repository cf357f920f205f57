/**
 * @file
 * Shared helpers for the figure-reproduction benches: aligned table
 * printing, the standard core-count sweep of the paper's figures, and
 * the machine-readable JSON report the perf-regression harness emits.
 */

#ifndef SBHBM_BENCH_BENCH_UTIL_H
#define SBHBM_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json_writer.h"

namespace sbhbm::bench {

/** The x-axis of Figs 2, 7, 8, 9. */
inline const std::vector<unsigned> &
coreSweep()
{
    static const std::vector<unsigned> cores = {2, 16, 32, 48, 64};
    return cores;
}

/** Simple aligned-column table printer. */
class Table
{
  public:
    explicit Table(std::string title) : title_(std::move(title)) {}

    Table &
    header(std::vector<std::string> cols)
    {
        cols_ = std::move(cols);
        return *this;
    }

    Table &
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
        return *this;
    }

    /** Format a double with @p prec digits after the point. */
    static std::string
    num(double v, int prec = 1)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
        return buf;
    }

    static std::string
    num(uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        return buf;
    }

    void
    print() const
    {
        std::printf("\n## %s\n\n", title_.c_str());
        std::vector<size_t> width(cols_.size(), 0);
        for (size_t c = 0; c < cols_.size(); ++c)
            width[c] = cols_[c].size();
        for (const auto &r : rows_)
            for (size_t c = 0; c < r.size() && c < width.size(); ++c)
                width[c] = std::max(width[c], r[c].size());

        auto print_row = [&](const std::vector<std::string> &r) {
            for (size_t c = 0; c < r.size(); ++c)
                std::printf("%-*s  ", static_cast<int>(width[c]),
                            r[c].c_str());
            std::printf("\n");
        };
        print_row(cols_);
        std::vector<std::string> rule;
        rule.reserve(cols_.size());
        for (size_t c = 0; c < cols_.size(); ++c)
            rule.push_back(std::string(width[c], '-'));
        print_row(rule);
        for (const auto &r : rows_)
            print_row(r);
    }

  private:
    std::string title_;
    std::vector<std::string> cols_;
    std::vector<std::vector<std::string>> rows_;
};

/** Print a named shape-check line ("EXPECT <what>: <ok|VIOLATED>"). */
inline void
shapeCheck(const char *what, bool ok)
{
    std::printf("SHAPE  %-60s %s\n", what, ok ? "ok" : "VIOLATED");
}

/**
 * One timed kernel result destined for the JSON perf report.
 * `baseline_ns_per_op` / `speedup` are 0 when the benchmark has no
 * naive reference implementation to compare against.
 */
struct BenchResult
{
    std::string name;
    double ns_per_op = 0;   //!< best wall time per operation
    uint64_t items = 0;     //!< records processed per operation
    double items_per_sec = 0;
    int iters = 0;          //!< timed repetitions (best-of)
    double baseline_ns_per_op = 0;
    double speedup = 0;     //!< baseline / rewritten
    int threads = 1;        //!< host worker threads the kernel used
};

/**
 * Git revision for report provenance: $SBHBM_GIT_REV when set (CI
 * exports it), else `git rev-parse` of the working directory, else
 * "unknown" (e.g. running an installed binary outside the repo).
 */
inline std::string
detectGitRev()
{
    if (const char *env = std::getenv("SBHBM_GIT_REV"))
        return env;
#if defined(__unix__) || defined(__APPLE__)
    if (std::FILE *p = ::popen("git rev-parse --short HEAD 2>/dev/null",
                               "r")) {
        char buf[64] = {0};
        const size_t got = std::fread(buf, 1, sizeof(buf) - 1, p);
        ::pclose(p);
        std::string rev(buf, got);
        while (!rev.empty()
               && (rev.back() == '\n' || rev.back() == '\r'))
            rev.pop_back();
        if (!rev.empty())
            return rev;
    }
#endif
    return "unknown";
}

/**
 * Collects BenchResults and writes them as `BENCH_kernels.json`-style
 * output. Schema v3: a schema tag, the host environment (host_cores,
 * git_rev — thread-scaling numbers are meaningless without the core
 * count they ran on), and one object per benchmark including the
 * host worker-thread count the kernel used. Deliberately
 * dependency-free (no Google Benchmark) so it runs everywhere CI
 * does.
 */
class JsonReport
{
  public:
    void add(BenchResult r) { results_.push_back(std::move(r)); }

    const std::vector<BenchResult> &results() const { return results_; }

    void setGitRev(std::string rev) { git_rev_ = std::move(rev); }

    /** @return true when the file was written successfully. */
    bool
    writeTo(const std::string &path) const
    {
        const unsigned hw = std::thread::hardware_concurrency();
        obs::JsonWriter w;
        w.beginObject();
        w.key("schema").value("sbhbm-bench-v3");
        w.key("host_cores").value(hw >= 1 ? hw : 1);
        w.key("git_rev").value(git_rev_.empty() ? detectGitRev()
                                                : git_rev_);
        w.key("benchmarks").beginArray();
        for (const BenchResult &r : results_) {
            w.beginObject();
            w.key("name").value(r.name);
            w.key("ns_per_op").value(r.ns_per_op, 2);
            w.key("items").value(r.items);
            w.key("items_per_sec").value(r.items_per_sec, 0);
            w.key("threads").value(r.threads);
            w.key("iters").value(r.iters);
            if (r.baseline_ns_per_op > 0) {
                w.key("baseline_ns_per_op").value(r.baseline_ns_per_op,
                                                  2);
                w.key("speedup").value(r.speedup, 2);
            }
            w.endObject();
        }
        w.endArray();
        w.endObject();
        return w.writeFile(path);
    }

  private:
    std::vector<BenchResult> results_;
    std::string git_rev_;
};

} // namespace sbhbm::bench

#endif // SBHBM_BENCH_BENCH_UTIL_H

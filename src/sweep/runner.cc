/**
 * @file
 * SweepRunner implementation: dynamic point claiming over an atomic
 * cursor, per-point result slots for deterministic assembly, the
 * first point failure carried back to the caller, and
 * EQ_SWEEP_THREADS resolution.
 */

#include "sweep/runner.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/stringutil.hh"

namespace eq {
namespace sweep {

namespace {

std::string
messageOf(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

} // namespace

SweepRunner::SweepRunner(RunnerOptions opts) : _opts(opts) {}

unsigned
SweepRunner::threadsFor(size_t num_points) const
{
    unsigned n = _opts.threads;
    if (n == 0) {
        const char *env = std::getenv("EQ_SWEEP_THREADS");
        if (env && !parseInt(env, 1u, &n))
            eq_warn("ignoring invalid EQ_SWEEP_THREADS='", env, "'");
    }
    if (n == 0)
        n = std::max(1u, std::thread::hardware_concurrency());
    if (num_points > 0 && n > num_points)
        n = static_cast<unsigned>(num_points);
    return std::max(1u, n);
}

Table
SweepRunner::run(const Grid &grid, std::vector<Column> schema,
                 const RowFn &fn) const
{
    return run(grid.points(), std::move(schema), fn);
}

Table
SweepRunner::run(const std::vector<Point> &points,
                 std::vector<Column> schema, const RowFn &fn) const
{
    Table table(std::move(schema));
    if (points.empty())
        return table;

    std::vector<std::vector<Cell>> rows(points.size());
    std::atomic<size_t> cursor{0};
    // The first throwing point wins the exchange and records itself;
    // the thread joins below publish it to this thread.
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    size_t errorAt = 0;
    auto work = [&](unsigned worker) {
        for (size_t i;
             !failed.load() && (i = cursor.fetch_add(1)) < points.size();) {
            try {
                rows[i] = fn(points[i], worker);
            } catch (...) {
                if (!failed.exchange(true)) {
                    error = std::current_exception();
                    errorAt = i;
                }
                return;
            }
        }
    };

    unsigned nthreads = threadsFor(points.size());
    if (nthreads == 1) {
        // Inline: no thread spawn for serial sweeps (and no scheduler
        // noise in single-threaded determinism baselines).
        work(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(nthreads);
        for (unsigned w = 0; w < nthreads; ++w)
            pool.emplace_back(work, w);
        for (auto &t : pool)
            t.join();
    }
    if (error)
        throw PointFailed(points[errorAt].index(), messageOf(error));

    // Assemble in point-index order: the table is independent of how
    // points were interleaved across workers.
    for (auto &row : rows)
        table.addRow(std::move(row));
    return table;
}

} // namespace sweep
} // namespace eq

/**
 * @file
 * SweepRunner: parallel, batched execution of a scenario grid.
 *
 * The runner spreads a Grid's points across a pool of worker threads,
 * following the bulk-synchronous independent-unit model that makes
 * simulator sweeps embarrassingly parallel. Each worker gets a dense
 * worker id with which a caller may index per-worker state; every
 * in-process engine sweep instead shares one serve::ProgramCache with
 * threadsFor() entries, which constructs at most one sim::Session per
 * thread and rebuilds it per config. Points are claimed dynamically
 * (an atomic cursor) for load balance, but results land in a slot per
 * point index, so the emitted table is byte-identical for any thread
 * count.
 *
 * A point whose row function throws fails the sweep, never the
 * process: its worker stops claiming points, the others finish the
 * point they hold and stop too, and once every thread is joined run()
 * rethrows the first failure as PointFailed on the caller's thread.
 *
 * Thread-count resolution: Options::threads when nonzero, else the
 * EQ_SWEEP_THREADS environment variable, else hardware concurrency;
 * always clamped to [1, number of points].
 */

#ifndef EQ_SWEEP_RUNNER_HH
#define EQ_SWEEP_RUNNER_HH

#include <functional>
#include <string>

#include "base/failure.hh"
#include "sweep/grid.hh"
#include "sweep/table.hh"

namespace eq {
namespace sweep {

/** What SweepRunner::run throws when a point's row function threw:
 *  code point_failed, what() "point <index>: <the exception's
 *  message>". */
class PointFailed : public Error {
  public:
    PointFailed(size_t point, const std::string &message)
        : Error(ErrorCode::PointFailed,
                "point " + std::to_string(point) + ": " + message),
          _point(point)
    {
    }

    /** Dense index of the point that threw. */
    size_t point() const { return _point; }

  private:
    size_t _point;
};

struct RunnerOptions {
    /** Worker threads; 0 = EQ_SWEEP_THREADS env, else hardware. */
    unsigned threads = 0;
};

class SweepRunner {
  public:
    explicit SweepRunner(RunnerOptions opts = {});

    /** Produce one result row for @p point. Runs on a worker thread;
     *  @p worker is dense in [0, threads) and stable for that thread,
     *  so it can index caller-owned per-worker state. */
    using RowFn =
        std::function<std::vector<Cell>(const Point &point,
                                        unsigned worker)>;

    /** Run every point of @p grid through @p fn; rows are collected in
     *  point-index order into a table with @p schema. Throws
     *  PointFailed when @p fn threw for some point. */
    Table run(const Grid &grid, std::vector<Column> schema,
              const RowFn &fn) const;

    /** Same over pre-enumerated points (lets callers that already
     *  materialized grid.points() — e.g. to size a worker pool —
     *  avoid enumerating the grid twice). */
    Table run(const std::vector<Point> &points,
              std::vector<Column> schema, const RowFn &fn) const;

    /** The thread count run() would use for @p num_points points. */
    unsigned threadsFor(size_t num_points) const;

  private:
    RunnerOptions _opts;
};

} // namespace sweep
} // namespace eq

#endif // EQ_SWEEP_RUNNER_HH

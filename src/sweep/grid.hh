/**
 * @file
 * Declarative scenario grids: named cartesian axes plus filters,
 * mirroring the nested sweep loops of the paper's experiment harnesses
 * (e.g. fig12_scalability's dataflow x Ah x HW x F x N nest).
 *
 * A Grid enumerates its points in a deterministic order — lexicographic
 * over the axes in declaration order, last axis fastest, exactly like
 * the nested for-loops it replaces — and assigns each surviving point a
 * dense index. That index, not thread scheduling, orders sweep results,
 * which is what makes multi-threaded execution reproducible.
 */

#ifndef EQ_SWEEP_GRID_HH
#define EQ_SWEEP_GRID_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace eq {
namespace sweep {

class Grid;

/** One scenario: a value for every axis, plus its dense sweep index. */
class Point {
  public:
    /** Dense index in enumeration order (after filtering). */
    size_t index() const { return _index; }

    /** Value of the named axis; panics when the axis is unknown. */
    int64_t at(const std::string &axis) const;
    /** Value of the @p axis -th declared axis. */
    int64_t at(size_t axis) const;

    const std::vector<int64_t> &values() const { return _values; }

  private:
    friend class Grid;
    const Grid *_grid = nullptr;
    size_t _index = 0;
    std::vector<int64_t> _values;
};

/** Cartesian product of named axes, pruned by filters. */
class Grid {
  public:
    /** Append an axis; @p values are swept in the given order. */
    Grid &axis(std::string name, std::vector<int64_t> values);

    /** Keep only points for which @p keep returns true. Filters see a
     *  fully populated Point (index not yet assigned). */
    Grid &filter(std::function<bool(const Point &)> keep);

    size_t numAxes() const { return _axes.size(); }
    const std::string &axisName(size_t i) const { return _axes[i].name; }
    /** Index of the named axis; panics when absent. */
    size_t axisIndex(const std::string &name) const;

    /** Enumerate all surviving points with dense indices. The returned
     *  points borrow this Grid (for axis-name lookup); it must outlive
     *  them, so a temporary Grid cannot enumerate. */
    std::vector<Point> points() const &;
    std::vector<Point> points() const && = delete;

    /** Number of surviving points (filters applied). */
    size_t size() const { return points().size(); }

  private:
    struct Axis {
        std::string name;
        std::vector<int64_t> values;
    };
    std::vector<Axis> _axes;
    std::vector<std::function<bool(const Point &)>> _filters;
};

} // namespace sweep
} // namespace eq

#endif // EQ_SWEEP_GRID_HH

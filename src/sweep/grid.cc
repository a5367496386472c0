/**
 * @file
 * Grid enumeration: an odometer over the axes in declaration order
 * (last axis fastest), filters applied per combination, dense indices
 * assigned to survivors.
 */

#include "sweep/grid.hh"

#include "base/logging.hh"

namespace eq {
namespace sweep {

int64_t
Point::at(const std::string &axis) const
{
    eq_assert(_grid, "point is not attached to a grid");
    return _values[_grid->axisIndex(axis)];
}

int64_t
Point::at(size_t axis) const
{
    eq_assert(axis < _values.size(), "axis index out of range");
    return _values[axis];
}

Grid &
Grid::axis(std::string name, std::vector<int64_t> values)
{
    eq_assert(!values.empty(), "axis '", name, "' has no values");
    for (const auto &a : _axes)
        eq_assert(a.name != name, "duplicate axis '", name, "'");
    _axes.push_back(Axis{std::move(name), std::move(values)});
    return *this;
}

Grid &
Grid::filter(std::function<bool(const Point &)> keep)
{
    _filters.push_back(std::move(keep));
    return *this;
}

size_t
Grid::axisIndex(const std::string &name) const
{
    for (size_t i = 0; i < _axes.size(); ++i)
        if (_axes[i].name == name)
            return i;
    eq_panic("grid has no axis named '", name, "'");
}

std::vector<Point>
Grid::points() const &
{
    std::vector<Point> out;
    if (_axes.empty())
        return out;
    std::vector<size_t> odo(_axes.size(), 0);
    while (true) {
        Point p;
        p._grid = this;
        p._values.reserve(_axes.size());
        for (size_t i = 0; i < _axes.size(); ++i)
            p._values.push_back(_axes[i].values[odo[i]]);
        bool keep = true;
        for (const auto &f : _filters)
            if (!f(p)) {
                keep = false;
                break;
            }
        if (keep) {
            p._index = out.size();
            out.push_back(std::move(p));
        }
        // Odometer increment, last axis fastest.
        size_t i = _axes.size();
        while (i > 0) {
            --i;
            if (++odo[i] < _axes[i].values.size())
                break;
            odo[i] = 0;
            if (i == 0)
                return out;
        }
    }
}

} // namespace sweep
} // namespace eq

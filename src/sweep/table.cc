/**
 * @file
 * Table implementation: schema checking and the three emitters. All
 * floating-point rendering goes through one fixed-precision snprintf
 * path so that identical rows always produce identical bytes,
 * independent of locale or emitter.
 */

#include "sweep/table.hh"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "base/logging.hh"
#include "base/stringutil.hh"

namespace eq {
namespace sweep {

int64_t
Cell::asInt() const
{
    eq_assert(_kind == ValueKind::Int, "cell is not an integer");
    return _i;
}

double
Cell::asReal() const
{
    eq_assert(_kind == ValueKind::Real, "cell is not a real");
    return _r;
}

double
Cell::asNumber() const
{
    eq_assert(_kind != ValueKind::Str, "cell is not numeric");
    return _kind == ValueKind::Int ? static_cast<double>(_i) : _r;
}

const std::string &
Cell::asStr() const
{
    eq_assert(_kind == ValueKind::Str, "cell is not a string");
    return _s;
}

Table::Table(std::vector<Column> schema) : _schema(std::move(schema))
{
    eq_assert(!_schema.empty(), "table schema must have columns");
}

size_t
Table::columnIndex(const std::string &name) const
{
    for (size_t i = 0; i < _schema.size(); ++i)
        if (_schema[i].name == name)
            return i;
    eq_panic("table has no column named '", name, "'");
}

void
Table::addRow(std::vector<Cell> cells)
{
    eq_assert(cells.size() == _schema.size(), "row arity ", cells.size(),
              " != schema arity ", _schema.size());
    for (size_t i = 0; i < cells.size(); ++i)
        eq_assert(cells[i].kind() == _schema[i].kind,
                  "cell kind mismatch in column '", _schema[i].name, "'");
    _rows.push_back(std::move(cells));
}

const Cell &
Table::at(size_t row, size_t col) const
{
    eq_assert(row < _rows.size() && col < _schema.size(),
              "table index out of range");
    return _rows[row][col];
}

std::string
Table::renderCell(const Cell &c, const Column &col) const
{
    char buf[64];
    switch (c.kind()) {
    case ValueKind::Int:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(c.asInt()));
        return buf;
    case ValueKind::Real:
        std::snprintf(buf, sizeof(buf), "%.*f", col.precision,
                      c.asReal());
        return buf;
    case ValueKind::Str:
        return c.asStr();
    }
    eq_panic("unreachable cell kind");
}

void
Table::emitText(std::ostream &os) const
{
    // Width per column: the declared minimum, grown to fit contents.
    std::vector<size_t> widths(_schema.size());
    std::vector<std::vector<std::string>> rendered(_rows.size());
    for (size_t c = 0; c < _schema.size(); ++c)
        widths[c] = std::max<size_t>(_schema[c].width,
                                     _schema[c].name.size());
    for (size_t r = 0; r < _rows.size(); ++r) {
        rendered[r].resize(_schema.size());
        for (size_t c = 0; c < _schema.size(); ++c) {
            rendered[r][c] = renderCell(_rows[r][c], _schema[c]);
            widths[c] = std::max(widths[c], rendered[r][c].size());
        }
    }
    auto pad = [&](const std::string &s, size_t c, bool left) {
        std::string out;
        size_t fill = widths[c] > s.size() ? widths[c] - s.size() : 0;
        if (left)
            out = s + std::string(fill, ' ');
        else
            out = std::string(fill, ' ') + s;
        return out;
    };
    os << "#";
    for (size_t c = 0; c < _schema.size(); ++c) {
        bool left = _schema[c].kind == ValueKind::Str;
        os << ' ' << pad(_schema[c].name, c, left);
    }
    os << '\n';
    for (size_t r = 0; r < _rows.size(); ++r) {
        os << ' ';
        for (size_t c = 0; c < _schema.size(); ++c) {
            bool left = _schema[c].kind == ValueKind::Str;
            os << ' ' << pad(rendered[r][c], c, left);
        }
        os << '\n';
    }
}

namespace {

/** RFC-4180 quoting: wrap when the field holds a comma, quote, or NL. */
std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

} // namespace

void
Table::emitCsv(std::ostream &os) const
{
    for (size_t c = 0; c < _schema.size(); ++c)
        os << (c ? "," : "") << csvEscape(_schema[c].name);
    os << '\n';
    for (const auto &row : _rows) {
        for (size_t c = 0; c < _schema.size(); ++c) {
            os << (c ? "," : "");
            os << csvEscape(renderCell(row[c], _schema[c]));
        }
        os << '\n';
    }
}

void
Table::emitJson(std::ostream &os) const
{
    os << "{\n  \"columns\": [";
    for (size_t c = 0; c < _schema.size(); ++c)
        os << (c ? ", " : "") << '"' << jsonEscape(_schema[c].name)
           << '"';
    os << "],\n  \"rows\": [\n";
    for (size_t r = 0; r < _rows.size(); ++r) {
        os << "    [";
        for (size_t c = 0; c < _schema.size(); ++c) {
            os << (c ? ", " : "");
            const Cell &cell = _rows[r][c];
            if (cell.kind() == ValueKind::Str)
                os << '"' << jsonEscape(cell.asStr()) << '"';
            else
                os << renderCell(cell, _schema[c]);
        }
        os << (r + 1 < _rows.size() ? "],\n" : "]\n");
    }
    os << "  ]\n}\n";
}

std::string
Table::csv() const
{
    std::ostringstream os;
    emitCsv(os);
    return os.str();
}

Table
Table::filterColumns(
    const std::function<bool(const Column &)> &keep) const
{
    std::vector<size_t> kept;
    std::vector<Column> schema;
    for (size_t c = 0; c < _schema.size(); ++c) {
        if (keep(_schema[c])) {
            kept.push_back(c);
            schema.push_back(_schema[c]);
        }
    }
    Table out(std::move(schema));
    for (const auto &row : _rows) {
        std::vector<Cell> cells;
        cells.reserve(kept.size());
        for (size_t c : kept)
            cells.push_back(row[c]);
        out.addRow(std::move(cells));
    }
    return out;
}

ColumnSummary
Table::summarize(const std::string &column) const
{
    size_t c = columnIndex(column);
    eq_assert(_schema[c].kind != ValueKind::Str,
              "cannot summarize string column '", column, "'");
    ColumnSummary s;
    for (const auto &row : _rows) {
        double v = row[c].asNumber();
        if (s.count == 0) {
            s.min = s.max = v;
        } else {
            s.min = std::min(s.min, v);
            s.max = std::max(s.max, v);
        }
        s.sum += v;
        ++s.count;
    }
    s.mean = s.count ? s.sum / static_cast<double>(s.count) : 0.0;
    return s;
}

} // namespace sweep
} // namespace eq

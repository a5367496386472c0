/**
 * @file
 * Section VI-C code-size comparison: the paper reports that SCALE-Sim
 * implements WS in 569 lines of Python, while its EQueue generator
 * needs 281 lines of C++.
 *
 * We measure the same quantity on this repository: the systolic
 * generator's non-blank line count, from the source itself. The paper
 * also reports a WS -> IS switch cost (410 changed lines vs 11); that
 * one is not measured here, because which source lines a dataflow
 * switch touches is not something a line count can tell apart from
 * how the dataflow tests happen to be spelled.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "bench_util.hh"

namespace {

/** Non-blank lines of @p path; -1 when it cannot be read. */
int
countLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return -1;
    int total = 0;
    std::string line;
    while (std::getline(in, line))
        if (line.find_first_not_of(" \t") != std::string::npos)
            ++total;
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = eq::bench::HarnessArgs::parse(
        argc, argv, {"--csv", "--json", "--no-wall"});
    // The generator's sources, from this build's source tree: the
    // generator itself and the PE-array blocks it emits with.
    int total = 0;
    for (const char *file : {"/generator.cc", "/generator.hh", "/pe.hh"}) {
        const int n = countLines(std::string(EQSIM_SYSTOLIC_SRC_DIR) + file);
        if (n < 0) {
            total = -1;
            break;
        }
        total += n;
    }

    std::printf("# Section VI-C: implementation size\n");
    eq::sweep::Table table(std::vector<eq::sweep::Column>{
        {"implementation", eq::sweep::ValueKind::Str, 34, 0},
        {"LOC", eq::sweep::ValueKind::Int, 10, 0},
    });
    table.addRow({"this repo: EQueue generator (C++)",
                  static_cast<int64_t>(total)});
    table.addRow({"paper: EQueue generator (C++)", 281});
    table.addRow({"paper: SCALE-Sim (Python)", 569});
    args.emit(table);
    std::printf("# shape: one generator serves all three dataflows in "
                "fewer lines than\n"
                "# SCALE-Sim's WS-only simulator.\n");
    return 0;
}

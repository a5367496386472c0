/**
 * @file
 * Section VI-C code-size comparison: the paper reports that SCALE-Sim
 * implements WS in 569 lines of Python and needs 410 changed lines to
 * switch WS -> IS, while its EQueue generator needs 281 lines of C++
 * and an 11-line change.
 *
 * We measure the same quantities on this repository: the systolic
 * generator's line count, and the number of lines that are conditional
 * on the dataflow (the switch cost), counted from the source itself.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "bench_util.hh"

namespace {

int
countLines(const std::string &path, bool only_dataflow_dependent)
{
    std::ifstream in(path);
    if (!in)
        return -1;
    int total = 0;
    int dataflow_dependent = 0;
    std::string line;
    bool in_df_block = false;
    int depth = 0;
    while (std::getline(in, line)) {
        bool nonempty = line.find_first_not_of(" \t") != std::string::npos;
        if (!nonempty)
            continue;
        ++total;
        // Heuristic: lines mentioning a dataflow enum or guarded by a
        // dataflow conditional are the ones a WS->IS switch touches.
        bool mentions = line.find("Dataflow::") != std::string::npos ||
                        line.find("dataflow") != std::string::npos;
        if (mentions && line.find("if") != std::string::npos) {
            in_df_block = true;
            depth = 0;
        }
        if (mentions || in_df_block)
            ++dataflow_dependent;
        if (in_df_block) {
            for (char c : line) {
                if (c == '{')
                    ++depth;
                if (c == '}')
                    --depth;
            }
            if (depth <= 0 && line.find('}') != std::string::npos)
                in_df_block = false;
        }
    }
    return only_dataflow_dependent ? dataflow_dependent : total;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = eq::bench::HarnessArgs::parse(
        argc, argv, {"--csv", "--json", "--no-wall"});
    // The generator's sources, from this build's source tree: the
    // generator itself and the PE-array blocks it emits with.
    auto count_all = [](bool df_only) {
        int sum = 0;
        for (const char *file : {"/generator.cc", "/generator.hh", "/pe.hh"}) {
            const int n =
                countLines(std::string(EQSIM_SYSTOLIC_SRC_DIR) + file,
                           df_only);
            if (n < 0)
                return -1;
            sum += n;
        }
        return sum;
    };
    int total = count_all(false);
    int switch_cost = count_all(true);

    std::printf("# Section VI-C: implementation size and WS->IS switch "
                "cost\n");
    eq::sweep::Table table(std::vector<eq::sweep::Column>{
        {"implementation", eq::sweep::ValueKind::Str, 34, 0},
        {"LOC", eq::sweep::ValueKind::Int, 10, 0},
        {"ws_is_delta", eq::sweep::ValueKind::Int, 14, 0},
    });
    table.addRow({"this repo: EQueue generator (C++)",
                  static_cast<int64_t>(total),
                  static_cast<int64_t>(switch_cost)});
    table.addRow({"paper: EQueue generator (C++)", 281, 11});
    table.addRow({"paper: SCALE-Sim (Python)", 569, 410});
    args.emit(table);
    std::printf("# shape: all three dataflows share one generator; the "
                "dataflow-dependent\n"
                "# lines are an order of magnitude fewer than a one-off "
                "simulator rewrite.\n");
    return 0;
}

/**
 * @file
 * Figure 14: distribution of the number of arguments of the system
 * calls Draco checks — the violin plot that justifies the per-argument-
 * count SLB subtable sizing.
 *
 * The `linux` row covers the complete native syscall interface (the
 * paper sizes the SLB from this distribution); each workload row covers
 * the checked syscalls of its syscall-complete profile. Pointer
 * arguments are excluded, as neither Seccomp nor Draco checks them.
 */

#include "common.hh"

using namespace draco;
using namespace draco::bench;

namespace {

void
addDistributionRow(TextTable &table, BenchReport &report,
                   const std::string &name,
                   const std::vector<unsigned> &argCounts)
{
    std::array<unsigned, 7> hist{};
    QuantileSketch sketch;
    for (unsigned c : argCounts) {
        hist[std::min<unsigned>(c, 6)]++;
        sketch.add(c);
    }
    std::vector<std::string> row = {name};
    std::string prefix = MetricRegistry::join(
        "figure", MetricRegistry::sanitize(name));
    for (unsigned c = 0; c <= 6; ++c) {
        row.push_back(std::to_string(hist[c]));
        report.registry().setCounter(
            MetricRegistry::join(prefix,
                                 "args_" + std::to_string(c)),
            hist[c]);
    }
    row.push_back(TextTable::num(sketch.quantile(0.5), 1));
    report.registry().setGauge(
        MetricRegistry::join(prefix, "median_args"),
        sketch.quantile(0.5));
    table.addRow(row);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("fig14_arg_counts", argc, argv);
    ProfileCache cache;

    TextTable table(
        "Figure 14: checked-argument-count distribution "
        "(syscall counts per #args; median)");
    table.setHeader({"source", "0", "1", "2", "3", "4", "5", "6",
                     "median"});

    // The full Linux interface, as used to size the SLB subtables.
    std::vector<unsigned> linuxCounts;
    for (const auto &desc : os::syscallTable())
        linuxCounts.push_back(desc.checkedArgCount());
    addDistributionRow(table, report, "linux", linuxCounts);

    for (const auto *app : benchWorkloads()) {
        const auto &profile = cache.get(*app).complete;
        std::vector<unsigned> counts;
        for (const auto &[sid, spec] : core::deriveCheckSpecs(profile))
            counts.push_back(core::argCount(spec.bitmask));
        addDistributionRow(table, report, app->name, counts);
    }
    table.print();
    return 0;
}

/**
 * @file
 * The `gpulat` command-line driver, as a library entry point so the
 * binary stays a one-line main() and tests can exercise the exact
 * code path the shipped tool runs.
 *
 *   gpulat list [workloads|gpus|keys]
 *   gpulat run   --gpu NAME --workload NAME [key=value ...]
 *                [--set path=value ...] [--scale S]
 *                [--json FILE|-] [--csv FILE|-] [--no-table]
 *                [--report summary|fig1|fig2|all] [--stats]
 *                [--jobs N]
 *   gpulat sweep same flags; comma-separated values in key=value /
 *                --set expand to the cartesian product; --jobs N
 *                runs up to N cells concurrently (0 = hardware
 *                concurrency) with output byte-identical to
 *                --jobs 1
 *   gpulat bench <suite>|--list [--quick] [--jobs N]
 *                [--tick-jobs N] [--json FILE|-] [--csv FILE|-]
 *                (api/bench.hh)
 */

#ifndef GPULAT_API_CLI_HH
#define GPULAT_API_CLI_HH

#include <iosfwd>

namespace gpulat {

/**
 * Run the CLI. Returns the process exit code: 0 on success, 1 if
 * any workload failed verification, 2 on usage/config errors.
 */
int runCli(int argc, const char *const *argv, std::ostream &out,
           std::ostream &err);

} // namespace gpulat

#endif // GPULAT_API_CLI_HH

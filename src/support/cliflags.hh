/**
 * @file
 * Shared command-line flag parsing.
 *
 * Every binary in the repo historically hand-rolled the same
 * `--threads/--json/--trace-out/--sample-every` argv scan (copy-pasted
 * across two dozen bench mains); CliFlags centralizes it so all
 * binaries accept the same spellings (`--name value` and `--name=value`
 * both work), reject or tolerate unknown flags consistently, and print
 * a uniform `--help`. The bench harness parses leniently (unknown
 * tokens pass through untouched for the binary's own parsing); the
 * serve tools parse strictly and exit with usage on anything
 * unrecognized.
 */

#ifndef DRACO_SUPPORT_CLIFLAGS_HH
#define DRACO_SUPPORT_CLIFLAGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace draco::support {

/**
 * Declarative flag table plus the parsed results.
 */
class CliFlags
{
  public:
    /**
     * @param program Binary name shown in the help header.
     * @param synopsis One-line description shown under the usage line.
     */
    explicit CliFlags(std::string program, std::string synopsis = "");

    /** Register a boolean flag (present/absent, takes no value). */
    void addFlag(const std::string &name, const std::string &help);

    /** Register a string-valued flag. */
    void addString(const std::string &name, const std::string &valueName,
                   const std::string &help, std::string def = "");

    /** Register an unsigned-integer flag (value must be > 0). */
    void addUint(const std::string &name, const std::string &valueName,
                 const std::string &help, uint64_t def = 0);

    /**
     * Register the flags every bench/tool binary shares, with uniform
     * help text: `--json <path>`, `--threads <n>` (unless @p threads is
     * false, for a binary with no parallel work to size),
     * `--trace-out <path>`, `--sample-every <cycles>`.
     */
    void addCommon(bool threads = true);

    /**
     * Parse @p argv.
     *
     * Strict mode (default): an unknown `--flag`, a missing value, or a
     * malformed number is an error — parse() returns false and error()
     * describes it; bare (non-flag) tokens become positionals().
     *
     * Lenient mode: unknown tokens (flag-shaped or not) pass through to
     * extras() untouched and malformed values of *known* flags warn and
     * keep the default — the BenchReport contract, where binaries layer
     * their own parsing on the same argv.
     *
     * `--help`/`-h` stops parsing and sets helpRequested() in both
     * modes.
     *
     * @return true when parsing consumed argv without error.
     */
    bool parse(int argc, char **argv, bool lenient = false);

    /** @return true when `--help`/`-h` was seen. */
    bool helpRequested() const { return _helpRequested; }

    /** @return Description of the first parse error ("" when none). */
    const std::string &error() const { return _error; }

    /** @return The rendered help text. */
    std::string helpText() const;

    /** @return true when @p name was set on the command line. */
    bool given(const std::string &name) const;

    /** @return Boolean flag value; fatal when @p name is not a flag. */
    bool flag(const std::string &name) const;

    /** @return String value; fatal when @p name is not a string flag. */
    const std::string &str(const std::string &name) const;

    /** @return Integer value; fatal when @p name is not a uint flag. */
    uint64_t uintValue(const std::string &name) const;

    /**
     * @return Tokens not consumed by registered flags: positionals in
     *         strict mode; positionals plus unknown flags (in argv
     *         order) in lenient mode.
     */
    const std::vector<std::string> &extras() const { return _extras; }

  private:
    enum class Kind { Flag, String, Uint };

    struct Spec {
        Kind kind = Kind::Flag;
        std::string valueName;
        std::string help;
        std::string strValue;
        uint64_t uintVal = 0;
        bool boolValue = false;
        bool given = false;
    };

    const Spec &lookup(const std::string &name, Kind kind) const;
    bool applyValue(const std::string &name, Spec &spec,
                    const std::string &value, bool lenient);
    bool fail(const std::string &message);

    std::string _program;
    std::string _synopsis;
    std::map<std::string, Spec> _specs;
    std::vector<std::string> _order; ///< Registration order for help.
    std::vector<std::string> _extras;
    std::string _error;
    bool _helpRequested = false;
};

} // namespace draco::support

#endif // DRACO_SUPPORT_CLIFLAGS_HH

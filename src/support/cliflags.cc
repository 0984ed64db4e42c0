#include "support/cliflags.hh"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "support/logging.hh"

namespace draco::support {

CliFlags::CliFlags(std::string program, std::string synopsis)
    : _program(std::move(program)), _synopsis(std::move(synopsis))
{
}

void
CliFlags::addFlag(const std::string &name, const std::string &help)
{
    Spec spec;
    spec.kind = Kind::Flag;
    spec.help = help;
    if (!_specs.emplace(name, std::move(spec)).second)
        panic("CliFlags: duplicate flag --%s", name.c_str());
    _order.push_back(name);
}

void
CliFlags::addString(const std::string &name, const std::string &valueName,
                    const std::string &help, std::string def)
{
    Spec spec;
    spec.kind = Kind::String;
    spec.valueName = valueName;
    spec.help = help;
    spec.strValue = std::move(def);
    if (!_specs.emplace(name, std::move(spec)).second)
        panic("CliFlags: duplicate flag --%s", name.c_str());
    _order.push_back(name);
}

void
CliFlags::addUint(const std::string &name, const std::string &valueName,
                  const std::string &help, uint64_t def)
{
    Spec spec;
    spec.kind = Kind::Uint;
    spec.valueName = valueName;
    spec.help = help;
    spec.uintVal = def;
    if (!_specs.emplace(name, std::move(spec)).second)
        panic("CliFlags: duplicate flag --%s", name.c_str());
    _order.push_back(name);
}

void
CliFlags::addCommon(bool threads)
{
    addString("json", "path",
              "write the metric registry as JSON to <path> "
              "(env DRACO_BENCH_JSON=<dir> is the fallback)");
    if (threads) {
        addUint("threads", "n",
                "worker threads for parallel work "
                "(env DRACO_BENCH_THREADS; default: hardware concurrency)");
    }
    addString("trace-out", "path",
              "record an event trace and export it to <path> "
              "(.json: Perfetto, otherwise .devt; env DRACO_TRACE_OUT)");
    addUint("sample-every", "cycles",
            "telemetry sampling interval in cycles "
            "(requires --trace-out; env DRACO_TRACE_SAMPLE_EVERY)");
}

bool
CliFlags::fail(const std::string &message)
{
    if (_error.empty())
        _error = message;
    return false;
}

bool
CliFlags::applyValue(const std::string &name, Spec &spec,
                     const std::string &value, bool lenient)
{
    if (spec.kind == Kind::Uint) {
        errno = 0;
        char *end = nullptr;
        unsigned long long v = std::strtoull(value.c_str(), &end, 10);
        bool ok = end && *end == '\0' && !value.empty() && errno == 0 &&
                  value[0] != '-' && v > 0;
        if (!ok) {
            if (lenient) {
                warn("ignoring invalid --%s '%s'", name.c_str(),
                     value.c_str());
                return true;
            }
            return fail("invalid value for --" + name + ": '" + value +
                        "'");
        }
        spec.uintVal = v;
    } else {
        spec.strValue = value;
    }
    spec.given = true;
    return true;
}

bool
CliFlags::parse(int argc, char **argv, bool lenient)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            _helpRequested = true;
            return true;
        }
        if (arg.rfind("--", 0) != 0 || arg == "--") {
            _extras.push_back(arg);
            continue;
        }

        std::string name = arg.substr(2);
        std::string value;
        bool hasValue = false;
        if (size_t eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            hasValue = true;
        }

        auto it = _specs.find(name);
        if (it == _specs.end()) {
            if (lenient) {
                _extras.push_back(arg);
                continue;
            }
            return fail("unknown flag --" + name);
        }
        Spec &spec = it->second;

        if (spec.kind == Kind::Flag) {
            if (hasValue)
                return fail("--" + name + " takes no value");
            spec.boolValue = true;
            spec.given = true;
            continue;
        }
        if (!hasValue) {
            if (i + 1 >= argc)
                return fail("--" + name + " requires a value");
            value = argv[++i];
        }
        if (!applyValue(name, spec, value, lenient))
            return false;
    }
    return true;
}

std::string
CliFlags::helpText() const
{
    std::ostringstream out;
    out << "usage: " << _program << " [options]";
    if (!_synopsis.empty())
        out << "\n\n" << _synopsis;
    out << "\n\noptions:\n";

    // Two-column layout: `--name <value>` left, help right, wrapped by
    // the caller's terminal (help strings are kept short).
    size_t width = 0;
    std::vector<std::pair<std::string, const Spec *>> rows;
    for (const std::string &name : _order) {
        const Spec &spec = _specs.at(name);
        std::string left = "--" + name;
        if (spec.kind != Kind::Flag)
            left += " <" + spec.valueName + ">";
        width = std::max(width, left.size());
        rows.emplace_back(std::move(left), &spec);
    }
    rows.emplace_back("--help", nullptr);
    width = std::max(width, std::string("--help").size());

    for (const auto &[left, spec] : rows) {
        out << "  " << left << std::string(width - left.size() + 2, ' ');
        out << (spec ? spec->help : "show this help") << "\n";
    }
    return out.str();
}

const CliFlags::Spec &
CliFlags::lookup(const std::string &name, Kind kind) const
{
    auto it = _specs.find(name);
    if (it == _specs.end())
        panic("CliFlags: unregistered flag --%s", name.c_str());
    if (it->second.kind != kind)
        panic("CliFlags: --%s accessed as the wrong kind",
              name.c_str());
    return it->second;
}

bool
CliFlags::given(const std::string &name) const
{
    auto it = _specs.find(name);
    if (it == _specs.end())
        panic("CliFlags: unregistered flag --%s", name.c_str());
    return it->second.given;
}

bool
CliFlags::flag(const std::string &name) const
{
    return lookup(name, Kind::Flag).boolValue;
}

const std::string &
CliFlags::str(const std::string &name) const
{
    return lookup(name, Kind::String).strValue;
}

uint64_t
CliFlags::uintValue(const std::string &name) const
{
    return lookup(name, Kind::Uint).uintVal;
}

} // namespace draco::support

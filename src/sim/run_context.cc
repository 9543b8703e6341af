#include "sim/run_context.hh"

#include <cstdarg>
#include <cstdio>

#include "util/env.hh"

namespace anic::sim {

RunConfig
RunConfig::fromEnv()
{
    RunConfig c;
    c.windowScale = util::Env::quick() ? 0.25 : 1.0;
    c.traceEnabled = util::Env::traceEnabled();
    return c;
}

RunContext::RunContext(RunConfig cfg) : cfg_(cfg)
{
    if (cfg_.traceEnabled)
        trace_.enable();
}

void
RunContext::print(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n > 0) {
        size_t old = out_.text.size();
        out_.text.resize(old + static_cast<size_t>(n) + 1);
        std::vsnprintf(out_.text.data() + old, static_cast<size_t>(n) + 1,
                       fmt, ap2);
        out_.text.resize(old + static_cast<size_t>(n));
    }
    va_end(ap2);
}

void
RunContext::json(const std::string &line)
{
    out_.text += line;
    out_.text += '\n';
    out_.jsonLines += line;
    out_.jsonLines += '\n';
}

void
RunContext::captureTraceDump()
{
    if (!trace_.enabled() || trace_.size() == 0)
        return;
    out_.traceDump = trace_.jsonl();
}

} // namespace anic::sim

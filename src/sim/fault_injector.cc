/**
 * @file
 * FaultInjector implementation.
 */

#include "sim/fault_injector.hh"

#include "trace/trace.hh"

namespace altoc::sim {

namespace {

/** splitmix64 finalizer: the avalanche core used for pure draws. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Decision-stream salts (distinct per concern). */
constexpr std::uint64_t kFateStream = 0xFA7E;
constexpr std::uint64_t kDelayStream = 0xDE1A;
constexpr std::uint64_t kExhaustStream = 0xE8A0;
constexpr std::uint64_t kStallStream = 0x57A1;
constexpr std::uint64_t kStraggleStream = 0x57AC;
constexpr std::uint64_t kFreezeStream = 0xF8EE;
constexpr std::uint64_t kKillStream = 0xDEAD;

} // namespace

FaultInjector::FaultInjector(const FaultSpec &spec)
    : spec_(spec), fateRng_(Rng(spec.seed).fork(kFateStream))
{
}

double
FaultInjector::hashUniform(std::uint64_t stream, std::uint64_t a,
                           std::uint64_t b) const
{
    const std::uint64_t u =
        mix64(mix64(mix64(spec_.seed ^ stream) ^ a) ^ b);
    return static_cast<double>(u >> 11) * 0x1.0p-53;
}

void
FaultInjector::note(Kind kind, Tick now, unsigned a, unsigned b)
{
    switch (kind) {
      case Kind::MsgDrop:
        ++c_.msgDropped;
        break;
      case Kind::MsgDup:
        ++c_.msgDuplicated;
        break;
      case Kind::MsgDelay:
        ++c_.msgDelayed;
        break;
      case Kind::RecvExhaust:
        ++c_.exhaustWindows;
        break;
      case Kind::MgrStall:
        ++c_.stallWindows;
        break;
      case Kind::CoreStraggle:
        ++c_.coreStraggles;
        break;
      case Kind::CoreFreeze:
        ++c_.coreFreezes;
        break;
      case Kind::CoreKill:
        ++c_.coreKills;
        break;
      case Kind::MgrKill:
        ++c_.managerKills;
        break;
    }
    ALTOC_TRACE_HOOK(tracer_,
                     record(now, a, trace::TraceKind::FaultInject, b,
                            static_cast<std::uint8_t>(kind)));
    if (hook_)
        hook_(kind, now, a, b);
}

bool
FaultInjector::countWindow(std::vector<std::int64_t> &seen, unsigned mgr,
                           std::int64_t window)
{
    if (seen.size() <= mgr)
        seen.resize(mgr + 1, -1);
    if (seen[mgr] == window)
        return false;
    seen[mgr] = window;
    return true;
}

FaultInjector::MsgFate
FaultInjector::messageFate(Tick now, unsigned src, unsigned dst)
{
    MsgFate fate = MsgFate::Deliver;
    if (!scripted_.empty()) {
        fate = scripted_.front();
        scripted_.pop_front();
    } else if (spec_.dropProb > 0.0 &&
               fateRng_.chance(spec_.dropProb)) {
        fate = MsgFate::Drop;
    } else if (spec_.dupProb > 0.0 && fateRng_.chance(spec_.dupProb)) {
        fate = MsgFate::Duplicate;
    }
    if (fate == MsgFate::Drop)
        note(Kind::MsgDrop, now, src, dst);
    else if (fate == MsgFate::Duplicate)
        note(Kind::MsgDup, now, src, dst);
    return fate;
}

Tick
FaultInjector::messageDelay(unsigned src, unsigned dst, Tick depart)
{
    if (!delaysMessages())
        return 0;
    const std::uint64_t pair =
        (static_cast<std::uint64_t>(src) << 32) | dst;
    if (hashUniform(kDelayStream, pair, depart) >= spec_.delayProb)
        return 0;
    note(Kind::MsgDelay, depart, src, dst);
    return spec_.delayNs;
}

Tick
FaultInjector::managerStalledUntil(unsigned mgr, Tick now)
{
    Tick until = 0;
    if (spec_.stallSet && mgr == spec_.stallMgr &&
        now >= spec_.stallAt && now < spec_.stallAt + spec_.stallFor) {
        until = spec_.stallAt + spec_.stallFor;
        if (!explicitStallSeen_) {
            explicitStallSeen_ = true;
            note(Kind::MgrStall, now, mgr, 0);
        }
    }
    if (spec_.stallProb > 0.0 && spec_.stallNs > 0) {
        const std::int64_t w =
            static_cast<std::int64_t>(now / spec_.stallNs);
        if (hashUniform(kStallStream, mgr,
                        static_cast<std::uint64_t>(w)) <
            spec_.stallProb) {
            const Tick wend =
                (static_cast<Tick>(w) + 1) * spec_.stallNs;
            until = until > wend ? until : wend;
            if (countWindow(stallSeen_, mgr, w))
                note(Kind::MgrStall, now, mgr,
                     static_cast<unsigned>(w));
        }
    }
    return until;
}

bool
FaultInjector::recvExhausted(unsigned mgr, Tick now)
{
    bool exhausted = false;
    if (spec_.exhaustProb > 0.0 && spec_.exhaustNs > 0) {
        const std::int64_t w =
            static_cast<std::int64_t>(now / spec_.exhaustNs);
        if (hashUniform(kExhaustStream, mgr,
                        static_cast<std::uint64_t>(w)) <
            spec_.exhaustProb) {
            exhausted = true;
            if (countWindow(exhaustSeen_, mgr, w))
                note(Kind::RecvExhaust, now, mgr,
                     static_cast<unsigned>(w));
        }
    }
    // A stalled runtime stops draining its receive FIFO, so a
    // mid-stall manager rejects MIGRATEs too -- this is what lets
    // peers notice the outage and quarantine it.
    if (!exhausted && managerStalledUntil(mgr, now) > now)
        exhausted = true;
    return exhausted;
}

bool
FaultInjector::windowKillsCore(unsigned core, std::uint64_t window) const
{
    if (spec_.killProb <= 0.0 || spec_.killNs == 0)
        return false;
    return hashUniform(kKillStream, core, window) < spec_.killProb;
}

void
FaultInjector::noteKill(Kind kind, Tick now, unsigned id,
                        unsigned detail)
{
    note(kind, now, id, detail);
}

Tick
FaultInjector::stretchExecution(unsigned core, Tick start, Tick slice)
{
    Tick extra = 0;
    if (spec_.straggleProb > 0.0 && spec_.straggleFactor > 1.0 &&
        hashUniform(kStraggleStream, core, start) <
            spec_.straggleProb) {
        extra += static_cast<Tick>(
            static_cast<double>(slice) * (spec_.straggleFactor - 1.0));
        note(Kind::CoreStraggle, start, core,
             static_cast<unsigned>(slice));
    }
    if (spec_.freezeProb > 0.0 && spec_.freezeNs > 0 &&
        hashUniform(kFreezeStream, core, start) < spec_.freezeProb) {
        extra += spec_.freezeNs;
        note(Kind::CoreFreeze, start, core, 0);
    }
    return extra;
}

} // namespace altoc::sim

#include "fuzz/campaign.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "baselines/replaycache.hh"
#include "check/auditor.hh"
#include "common/logging.hh"
#include "sim/report.hh"
#include "sim/system.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

namespace ppa
{
namespace fuzz
{

namespace
{

bool
flavorFromName(const std::string &name, check::PersistFlavor &out)
{
    if (name == "strict")
        out = check::PersistFlavor::Strict;
    else if (name == "epoch")
        out = check::PersistFlavor::Epoch;
    else if (name == "relaxed")
        out = check::PersistFlavor::Relaxed;
    else
        return false;
    return true;
}

std::string
valuesStr(const std::vector<Word> &values)
{
    std::ostringstream os;
    os << "(";
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? ", " : "") << values[i];
    os << ")";
    return os.str();
}

std::string
cutStr(const std::vector<std::uint64_t> &cut)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < cut.size(); ++i)
        os << (i ? ", " : "") << cut[i];
    os << "]";
    return os.str();
}

/**
 * Record the committed-path streams of @p test to @p dir, then replay
 * them from disk into a fresh system crashed at @p v.cycle, checking
 * that the trace-driven run reproduces the original observation. PPA
 * runs carry the full invariant auditors.
 */
void
recordAndReplay(const check::LitmusTest &test, const Violation &v,
                const std::string &dir, CampaignFinding &finding)
{
    const auto n = static_cast<unsigned>(test.threads.size());

    // Record: the committed path of a fuzz program is straight-line,
    // so the executor stream IS what any crash-free run commits.
    std::vector<std::unique_ptr<ProgramExecutor>> execs;
    std::uint64_t maxLen = 0;
    for (unsigned t = 0; t < n; ++t) {
        execs.push_back(
            std::make_unique<ProgramExecutor>(test.threads[t]));
        maxLen = std::max(maxLen, execs.back()->totalLength());
    }

    trace::TraceMeta meta;
    meta.app = "fuzz:" + test.name;
    meta.seed = 0;
    meta.threads = n;
    // The manifest requires equal per-thread lengths; shorter threads
    // are padded with trailing nops the core never reaches (fetch
    // stops at source exhaustion, and the pad sits after halt).
    meta.instsPerThread = maxLen;
    trace::TraceWriter writer(dir, meta);
    for (unsigned t = 0; t < n; ++t) {
        DynInst d;
        std::uint64_t count = 0;
        Addr lastPc = 0;
        execs[t]->seekTo(0);
        while (execs[t]->next(d)) {
            writer.append(t, d);
            lastPc = d.pc;
            ++count;
        }
        for (; count < maxLen; ++count) {
            DynInst pad;
            pad.index = count;
            pad.pc = lastPc;
            pad.op = Opcode::Nop;
            writer.append(t, pad);
        }
    }
    writer.finish();

    finding.replayAttempted = true;

    // Replay from disk and crash at the same cycle.
    std::string error;
    trace::TraceSet set;
    if (!set.load(dir, error)) {
        finding.detail += "; trace reload failed: " + error;
        return;
    }
    std::vector<std::unique_ptr<trace::TraceReplaySource>> sources;
    std::vector<std::unique_ptr<ReplayCacheTransform>> transforms;

    ExperimentKnobs knobs;
    knobs.threads = n;
    SystemConfig sc = makeSystemConfig(v.variant, knobs, n);
    System system(sc);
    for (unsigned t = 0; t < n; ++t)
        system.seedMemory(test.threads[t].initialMemory());
    for (unsigned t = 0; t < n; ++t) {
        sources.push_back(
            std::make_unique<trace::TraceReplaySource>(set, t));
        if (v.variant == SystemVariant::ReplayCache) {
            transforms.push_back(std::make_unique<ReplayCacheTransform>(
                *sources.back(), ReplayCacheParams{}));
            system.bindSource(t, transforms.back().get());
        } else {
            system.bindSource(t, sources.back().get());
        }
    }

    std::vector<std::unique_ptr<check::Auditor>> auditors;
    if (v.variant == SystemVariant::Ppa) {
        auto oracle = std::make_shared<check::StoreOracle>();
        for (unsigned t = 0; t < n; ++t) {
            auditors.push_back(std::make_unique<check::Auditor>(
                system.core(t), system.memory(), oracle));
            system.core(t).attachObserver(auditors.back().get());
        }
    }

    system.runUntilCycle(v.cycle);
    check::PersistModel::StoreCut cut;
    for (unsigned t = 0; t < n; ++t)
        cut.push_back(system.core(t).committedStores());
    auto images = system.powerFail();
    if (v.variant == SystemVariant::Ppa) {
        system.recover(images);
        for (auto &auditor : auditors) {
            finding.replayAuditViolations += auditor->violationCount();
            auto replay = auditor->verifyReplay();
            finding.replayAuditViolations += replay.mismatches;
        }
    }
    check::PersistModel::Outcome outcome;
    for (Addr a : test.observed)
        outcome.push_back(
            system.memory().nvmImage().read(MemImage::wordAlign(a)));

    finding.replayConfirmed = cut == v.cut && outcome == v.outcome;
    if (!finding.replayConfirmed)
        finding.detail += "; replay diverged: cut " + cutStr(cut) +
                          " outcome " + valuesStr(outcome);
}

std::uint64_t
countActions(const FuzzSpec &spec)
{
    std::uint64_t a = 0;
    for (const ThreadSpec &ts : spec.threads)
        a += ts.actions.size();
    return a;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out.push_back('\\');
        out.push_back(ch);
    }
    return out;
}

} // namespace

CampaignResult
runCampaign(const CampaignOptions &opts)
{
    CampaignResult res;
    res.variant = opts.variant;
    res.flavor = check::flavorForVariant(opts.variant);

    std::string why;
    if (!check::variantSupportsLitmus(opts.variant, &why)) {
        res.skipped = opts.programs;
        res.notes.push_back("variant unsupported: " + why);
        return res;
    }

    for (std::uint64_t i = 0; i < opts.programs; ++i) {
        FuzzSpec spec = generateSpec(opts.gen, opts.seed, i);
        check::LitmusTest test = lowerSpec(spec);

        std::vector<const Program *> progs;
        for (const Program &p : test.threads)
            progs.push_back(&p);
        check::PersistModel model(progs);
        if (!model.racyAddresses().empty() ||
            !model.crossThreadReads().empty()) {
            ++res.skipped;
            res.notes.push_back(spec.name +
                                ": outside the model fragment "
                                "(generator bug)");
            continue;
        }

        check::ReferenceSummary ref =
            check::runReference(test, opts.variant, opts.maxCycles);
        if (!ref.completed) {
            ++res.skipped;
            res.notes.push_back(spec.name +
                                ": reference run incomplete");
            continue;
        }

        std::vector<Cycle> crashes = check::biasedCrashSchedule(
            ref, opts.schedules, opts.seed ^ check::fnv64(spec.name));

        // First offending observation of this program, if any.
        bool haveOffender = false;
        Violation offender;
        bool offenderStrictOnly = false;

        for (Cycle c : crashes) {
            check::CrashObservation obs =
                check::crashObserve(test, opts.variant, c);
            ++res.crashPoints;
            bool allowed = model.outcomeAllowed(
                res.flavor, obs.cut, test.observed, obs.outcome);
            bool strictAllowed =
                res.flavor == check::PersistFlavor::Strict
                    ? allowed
                    : model.outcomeAllowed(check::PersistFlavor::Strict,
                                           obs.cut, test.observed,
                                           obs.outcome);
            if (!allowed)
                ++res.violations;
            if (!strictAllowed)
                ++res.strictDivergences;
            bool offends = !allowed || !strictAllowed;
            if (offends && !haveOffender) {
                haveOffender = true;
                offenderStrictOnly = allowed;
                offender.spec = spec;
                offender.variant = opts.variant;
                offender.flavor = !allowed
                                      ? res.flavor
                                      : check::PersistFlavor::Strict;
                offender.cycle = c;
                offender.cut = obs.cut;
                offender.outcome = obs.outcome;
            }
        }

        if (!haveOffender || res.findings.size() >= opts.maxFindings)
            continue;

        CampaignFinding finding;
        finding.program = spec.name;
        finding.index = i;
        finding.flavor = offender.flavor;
        finding.strictOnly = offenderStrictOnly;
        finding.cycle = offender.cycle;
        finding.threadsBefore =
            static_cast<unsigned>(spec.threads.size());
        finding.actionsBefore = countActions(spec);
        finding.detail = "outcome " + valuesStr(offender.outcome) +
                         " forbidden under " +
                         check::flavorName(offender.flavor) +
                         " at cut " + cutStr(offender.cut) + " cycle " +
                         std::to_string(offender.cycle);

        if (!opts.traceDir.empty())
            recordAndReplay(test, offender,
                            opts.traceDir + "/" + spec.name, finding);

        ShrinkResult shrunk = shrinkViolation(offender, opts.shrink);
        finding.shrunkCycle = shrunk.min.cycle;
        finding.threadsAfter =
            static_cast<unsigned>(shrunk.min.spec.threads.size());
        finding.actionsAfter = countActions(shrunk.min.spec);
        finding.shrinkSteps = shrunk.steps;
        finding.shrinkJudged = shrunk.judged;
        finding.shrinkBudgetExhausted = shrunk.budgetExhausted;

        if (!opts.corpusDir.empty()) {
            std::string path =
                opts.corpusDir + "/" + spec.name + ".litmus";
            std::string text = reproducerText(shrunk.min);
            metrics::writeFile(path, text);
            finding.reproducerFile = path;
        }
        res.findings.push_back(std::move(finding));
    }
    res.programs = opts.programs;
    return res;
}

std::string
reproducerText(const Violation &v)
{
    std::ostringstream os;
    os << "ppa-fuzz-reproducer v1\n";
    os << "variant " << variantToken(v.variant) << "\n";
    os << "flavor " << check::flavorName(v.flavor) << "\n";
    os << "cycle " << v.cycle << "\n";
    os << "# cut " << cutStr(v.cut) << " outcome "
       << valuesStr(v.outcome) << "\n";
    os << specText(v.spec);
    os << "end\n";
    return os.str();
}

bool
parseReproducerText(const std::string &text, Violation &out,
                    std::string &error)
{
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line) || line != "ppa-fuzz-reproducer v1") {
        error = "missing 'ppa-fuzz-reproducer v1' header";
        return false;
    }
    std::ostringstream spec;
    bool sawEnd = false;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key) || key[0] == '#')
            continue;
        if (key == "variant") {
            std::string tok;
            if (!(ls >> tok) || !variantFromToken(tok, out.variant)) {
                error = "bad variant line";
                return false;
            }
        } else if (key == "flavor") {
            std::string tok;
            if (!(ls >> tok) || !flavorFromName(tok, out.flavor)) {
                error = "bad flavor line";
                return false;
            }
        } else if (key == "cycle") {
            std::uint64_t c = 0;
            if (!(ls >> c)) {
                error = "bad cycle line";
                return false;
            }
            out.cycle = c;
        } else if (key == "end") {
            sawEnd = true;
            break;
        } else {
            spec << line << "\n";
        }
    }
    if (!sawEnd) {
        error = "missing 'end' sentinel";
        return false;
    }
    return parseSpecText(spec.str(), out.spec, error);
}

std::string
campaignJson(const CampaignResult &res, const CampaignOptions &opts)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schemaVersion\": 1,\n";
    os << "  \"variant\": \"" << variantToken(res.variant) << "\",\n";
    os << "  \"flavor\": \"" << check::flavorName(res.flavor)
       << "\",\n";
    os << "  \"seed\": " << opts.seed << ",\n";
    os << "  \"programs\": " << res.programs << ",\n";
    os << "  \"schedulesPerProgram\": " << opts.schedules << ",\n";
    os << "  \"crashPoints\": " << res.crashPoints << ",\n";
    os << "  \"violations\": " << res.violations << ",\n";
    os << "  \"strictDivergences\": " << res.strictDivergences << ",\n";
    os << "  \"skipped\": " << res.skipped << ",\n";
    os << "  \"pass\": " << (res.pass() ? "true" : "false") << ",\n";
    os << "  \"findings\": [\n";
    for (std::size_t i = 0; i < res.findings.size(); ++i) {
        const CampaignFinding &f = res.findings[i];
        os << "    {\"program\": \"" << jsonEscape(f.program) << "\","
           << " \"index\": " << f.index << ","
           << " \"flavor\": \"" << check::flavorName(f.flavor) << "\","
           << " \"strictOnly\": " << (f.strictOnly ? "true" : "false")
           << "," << " \"cycle\": " << f.cycle << ","
           << " \"shrunkCycle\": " << f.shrunkCycle << ","
           << " \"threadsBefore\": " << f.threadsBefore << ","
           << " \"threadsAfter\": " << f.threadsAfter << ","
           << " \"actionsBefore\": " << f.actionsBefore << ","
           << " \"actionsAfter\": " << f.actionsAfter << ","
           << " \"shrinkSteps\": " << f.shrinkSteps << ","
           << " \"shrinkJudged\": " << f.shrinkJudged << ","
           << " \"shrinkBudgetExhausted\": "
           << (f.shrinkBudgetExhausted ? "true" : "false") << ","
           << " \"replayAttempted\": "
           << (f.replayAttempted ? "true" : "false") << ","
           << " \"replayConfirmed\": "
           << (f.replayConfirmed ? "true" : "false") << ","
           << " \"replayAuditViolations\": " << f.replayAuditViolations
           << "," << " \"reproducer\": \""
           << jsonEscape(f.reproducerFile) << "\","
           << " \"detail\": \"" << jsonEscape(f.detail) << "\"}"
           << (i + 1 < res.findings.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"notes\": [";
    for (std::size_t i = 0; i < res.notes.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(res.notes[i])
           << "\"";
    os << "]\n";
    os << "}\n";
    return os.str();
}

} // namespace fuzz
} // namespace ppa

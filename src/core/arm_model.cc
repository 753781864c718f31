#include "core/arm_model.hh"

namespace pmtest::core
{

void
ArmModel::apply(const PmOp &op, ShadowMemory &shadow, Report &report,
                size_t op_index)
{
    switch (op.type) {
      case OpType::DcCvap: {
        // Clean-to-persistence: same interval semantics as clwb,
        // including the performance-bug WARN rules.
        const AddrRange range(op.addr, op.size);
        reportCvapWarns(shadow.scanClwb(range), op, report, op_index);
        shadow.recordClwb(range);
        break;
      }

      case OpType::Dsb:
        shadow.bumpTimestamp();
        shadow.completePendingFlushes();
        break;

      case OpType::Clwb:
      case OpType::ClflushOpt:
      case OpType::Clflush:
      case OpType::Sfence:
      case OpType::Ofence:
      case OpType::Dfence:
        reportMalformed(op, report, op_index, name());
        break;

      default:
        // Writes, transactional events and checkers are handled by
        // the engine.
        break;
    }
}

void
ArmModel::reportCvapWarns(const ClwbScan &scan, const PmOp &op,
                          Report &report, size_t op_index)
{
    const AddrRange range(op.addr, op.size);
    Finding f;
    f.severity = Severity::Warn;
    f.loc = op.loc;
    f.opIndex = op_index;
    // Same repair as the x86 clwb WARNs: drop the clean.
    f.hint.action = FixAction::DeleteFlush;
    f.hint.addr = op.addr;
    f.hint.size = op.size;
    f.hint.opIndex = op_index;
    f.hint.flushOp = op.type;
    if (scan.redundant) {
        f.kind = FindingKind::RedundantFlush;
        f.message = "DC CVAP of " + range.str() +
                    " duplicates an earlier clean that has not "
                    "been synchronized yet";
        report.add(std::move(f));
    } else if (scan.unmodified || scan.alreadyClean) {
        f.kind = FindingKind::UnnecessaryFlush;
        f.message = "DC CVAP of " + range.str() +
                    (scan.unmodified
                         ? " targets data never modified in this "
                           "trace"
                         : " targets data that is already "
                           "persistent");
        report.add(std::move(f));
    }
}

bool
ArmModel::checkOrderedBefore(const AddrRange &a, const AddrRange &b,
                             const ShadowMemory &shadow,
                             std::string *why) const
{
    // Strict model: same rule as x86 — A's persists must be
    // guaranteed complete before B's may begin.
    const auto a_ivals = shadow.persistIntervals(a);
    const auto b_ivals = shadow.persistIntervals(b);
    if (a_ivals.empty() || b_ivals.empty())
        return true;

    Epoch a_max_end = 0;
    AddrRange a_worst;
    for (const auto &[range, ival] : a_ivals) {
        if (ival.end >= a_max_end) {
            a_max_end = ival.end;
            a_worst = range;
        }
    }
    Epoch b_min_begin = kInfEpoch;
    AddrRange b_worst;
    for (const auto &[range, ival] : b_ivals) {
        if (ival.begin <= b_min_begin) {
            b_min_begin = ival.begin;
            b_worst = range;
        }
    }
    if (a_max_end <= b_min_begin)
        return true;

    if (why) {
        *why = "persist interval of " + a_worst.str() + " (ends " +
               (a_max_end == kInfEpoch ? std::string("never")
                                       : std::to_string(a_max_end)) +
               ") is not guaranteed before that of " + b_worst.str() +
               " (may begin at epoch " + std::to_string(b_min_begin) +
               ")";
    }
    return false;
}

} // namespace pmtest::core

#include "core/hops_model.hh"

namespace pmtest::core
{

void
HopsModel::apply(const PmOp &op, ShadowMemory &shadow, Report &report,
                 size_t op_index)
{
    switch (op.type) {
      case OpType::Ofence:
        // Orders persists without enforcing durability: writes before
        // and after the ofence get distinct interval begins.
        shadow.bumpTimestamp();
        break;

      case OpType::Dfence:
        // Orders and persists: everything written so far is durable
        // once the dfence completes.
        shadow.bumpTimestamp();
        shadow.completeAllWrites();
        break;

      case OpType::Clwb:
      case OpType::ClflushOpt:
      case OpType::Clflush:
      case OpType::Sfence:
      case OpType::DcCvap:
      case OpType::Dsb:
        // HOPS replaces explicit writebacks and fences entirely.
        reportMalformed(op, report, op_index, name());
        break;

      default:
        // Writes, transactional events and checkers are handled by
        // the engine.
        break;
    }
}

FixHint
HopsModel::durabilityHint(const AddrRange &range,
                          const ShadowMemory &shadow,
                          size_t op_index) const
{
    // HOPS hardware writes back on its own; durability only needs a
    // dfence, whatever the flush state looks like.
    (void)range;
    (void)shadow;
    FixHint hint;
    hint.action = FixAction::InsertFence;
    hint.opIndex = op_index;
    hint.flushOp = repairFlushOp();
    hint.fenceOp = OpType::Dfence;
    return hint;
}

FixHint
HopsModel::orderingHint(const AddrRange &a, const AddrRange &b,
                        const ShadowMemory &shadow,
                        size_t op_index) const
{
    // Epoch ordering is all checkOrderedBefore requires: the
    // lightweight ofence between the two writes is the whole fix —
    // no durability of A needed, so no writeback either.
    (void)shadow;
    FixHint hint;
    hint.action = FixAction::InsertOrdering;
    hint.addr = a.addr;
    hint.size = a.size;
    hint.addrB = b.addr;
    hint.sizeB = b.size;
    hint.opIndex = op_index;
    hint.flushOp = repairFlushOp();
    hint.fenceOp = OpType::Ofence;
    hint.withFlush = false;
    return hint;
}

bool
HopsModel::checkOrderedBefore(const AddrRange &a, const AddrRange &b,
                              const ShadowMemory &shadow,
                              std::string *why) const
{
    // HOPS fences already enforce persist order, so ordering holds as
    // soon as every A-interval *starts* strictly before every
    // B-interval (paper §5.2) — durability of A is not required.
    const auto a_ivals = shadow.persistIntervals(a);
    const auto b_ivals = shadow.persistIntervals(b);
    if (a_ivals.empty() || b_ivals.empty())
        return true;

    Epoch a_max_begin = 0;
    AddrRange a_worst;
    for (const auto &[range, ival] : a_ivals) {
        if (ival.begin >= a_max_begin) {
            a_max_begin = ival.begin;
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

    if (a_max_begin < b_min_begin)
        return true;

    if (why) {
        *why = "write to " + a_worst.str() + " (epoch " +
               std::to_string(a_max_begin) +
               ") is not separated by a fence from write to " +
               b_worst.str() + " (epoch " + std::to_string(b_min_begin) +
               ")";
    }
    return false;
}

} // namespace pmtest::core

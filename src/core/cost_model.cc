#include "core/cost_model.hh"

namespace swex
{

namespace
{

struct ActivityCost
{
    Cycles cRead, cWrite;     // FlexibleC profile
    Cycles aRead, aWrite;     // TunedAsm profile
};

// Table 2 of the paper, with per-unit activities divided by the
// multiplicities of the measured scenario (8 readers, 1 writer).
constexpr ActivityCost costTable[] = {
    /* TrapDispatch  */ {11,  9, 11, 11},
    /* MsgDispatch   */ {14, 14, 15, 15},
    /* ProtoDispatch */ {10, 10,  0,  0},
    /* DecodeDir     */ {22, 52, 17, 40},
    /* SaveState     */ {24, 17,  0,  0},
    /* MemMgmt       */ {60, 28, 65, 11},
    /* HashAdmin     */ {80, 74,  0,  0},
    /* StorePointer  */ {39, 39, 12, 12},
    /* FreePointer   */ {12, 12,  6,  6},
    /* InvXmit       */ {52, 52, 31, 31},
    /* DataSend      */ {30, 30, 15, 15},
    /* BusySend      */ {15, 15,  8,  8},
    /* NonAlewife    */ {10,  6,  0,  0},
    /* TrapReturn    */ {14,  9, 11, 11},
};

static_assert(sizeof(costTable) / sizeof(costTable[0]) ==
              static_cast<std::size_t>(Activity::NumActivities),
              "cost table out of sync with Activity enum");

} // anonymous namespace

Cycles
CostModel::cost(Activity a, bool is_write) const
{
    const ActivityCost &c = costTable[static_cast<unsigned>(a)];
    if (_profile == HandlerProfile::FlexibleC)
        return is_write ? c.cWrite : c.cRead;
    return is_write ? c.aWrite : c.aRead;
}

} // namespace swex

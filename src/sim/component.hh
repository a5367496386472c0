/**
 * @file
 * The component library (Section IV-D).
 *
 * Class hierarchy mirrors the paper: a generic Device base manages
 * schedule queues (bank/port occupancy) to model contention; Memory
 * subclasses override getReadOrWriteCycles; Processor carries the event
 * queue and a per-kind cost table; Dma is a movement-only processor;
 * Connection models bandwidth-limited links; StreamFifo models AXI-stream
 * style FIFOs. Users extend the library by registering factories with
 * ComponentFactory (the `Cache` example lives in tests/examples).
 */

#ifndef EQ_SIM_COMPONENT_HH
#define EQ_SIM_COMPONENT_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/logging.hh"
#include "sim/simvalue.hh"

namespace eq {
namespace sim {

using Cycles = uint64_t;

enum class CostClass : uint8_t; // resolved processor class, costmodel.hh

/** Base of every modeled hardware entity; nodes of the hierarchy tree. */
class Component {
  public:
    explicit Component(std::string name) : _name(std::move(name)) {}
    virtual ~Component() = default;

    const std::string &name() const { return _name; }
    void setName(std::string n) { _name = std::move(n); }

    Component *parent() const { return _parent; }
    /** Attach @p child under @p child_name. Names must be unique within
     *  a parent: re-adding an existing name is rejected loudly instead
     *  of silently overwriting (which would leave the old child with a
     *  dangling _parent and an unreachable entry in the hierarchy). */
    void
    addChild(const std::string &child_name, Component *child)
    {
        auto [it, inserted] = _children.emplace(child_name, child);
        (void)it;
        eq_assert(inserted, "component '", _name,
                  "' already has a child named '", child_name, "'");
        child->_parent = this;
        child->setName(child_name);
    }
    Component *
    child(const std::string &child_name) const
    {
        auto it = _children.find(child_name);
        return it == _children.end() ? nullptr : it->second;
    }
    const std::unordered_map<std::string, Component *> &
    children() const
    {
        return _children;
    }

    /** Dotted path from the root, for trace/report labels. */
    std::string path() const;

    /// @name Exact loop fast-forward (Simulator::Impl::captureComponents)
    /// A component's timing state is what decides when its future
    /// accesses start, each time taken relative to `now`. Times at or
    /// below `now` all read 0: simulation time never goes back, so
    /// they are interchangeable (Device::acquire relies on it). Its
    /// counters are what it adds to a report.
    /// @{
    /** Append the timing state to @p state and the counters to
     *  @p counters. False when the component holds work a skipped
     *  iteration could not repeat (a processor with queued events). */
    virtual bool
    captureTiming(Cycles, std::vector<uint64_t> &,
                  std::vector<uint64_t> &) const
    {
        return true;
    }
    /** Add @p times x the counter deltas at @p delta, laid out as
     *  captureTiming writes the counters. @return the first delta past
     *  this component's. */
    virtual const uint64_t *
    addCounters(const uint64_t *delta, uint64_t)
    {
        return delta;
    }
    /** Move every time after @p now later by @p by. */
    virtual void shiftTimes(Cycles, Cycles) {}
    /// @}

  protected:
    static uint64_t
    sinceNow(Cycles t, Cycles now)
    {
        return t > now ? t - now : 0;
    }
    static Cycles
    shifted(Cycles t, Cycles now, Cycles by)
    {
        return t > now ? t + by : t;
    }
    /** @p x += @p times * @p delta, wrapping like the unsigned
     *  differences the deltas are. */
    static void
    addTimes(int64_t &x, uint64_t delta, uint64_t times)
    {
        x = static_cast<int64_t>(static_cast<uint64_t>(x) + delta * times);
    }

  private:
    std::string _name;
    Component *_parent = nullptr;
    /** Hashed: child lookup is on the engine's elaboration path and is
     *  never iterated for output (no ordering requirement). */
    std::unordered_map<std::string, Component *> _children;
};

/**
 * A Device owns one or more schedule queues ("banks"/"ports"); an access
 * reserves the earliest-free queue, modeling stalls under contention.
 */
class Device : public Component {
  public:
    Device(std::string name, unsigned num_queues)
        : Component(std::move(name)), _nextFree(num_queues, 0)
    {}

    /**
     * Reserve a queue for @p cycles starting no earlier than @p now.
     * @return the cycle at which the reservation begins (>= now).
     */
    Cycles
    acquire(Cycles now, Cycles cycles)
    {
        // Zero-occupancy access with every queue free by `now` (the
        // steady state of register files, whose accesses all cost 0):
        // the access starts immediately, and writing `now` into the
        // earliest-free queue would be unobservable — simulation time
        // never decreases (runHeap asserts it), so queue times at or
        // below the current cycle are forever interchangeable. Skip
        // the scan and the store.
        if (cycles == 0 && _maxNextFree <= now)
            return now;
        // Pick the earliest-free queue deterministically.
        size_t best = 0;
        for (size_t i = 1; i < _nextFree.size(); ++i)
            if (_nextFree[i] < _nextFree[best])
                best = i;
        Cycles start = std::max(now, _nextFree[best]);
        _nextFree[best] = start + cycles;
        _maxNextFree = std::max(_maxNextFree, start + cycles);
        return start;
    }

    unsigned numQueues() const
    {
        return static_cast<unsigned>(_nextFree.size());
    }

    /** The queues still busy after @p now, as a count and a sorted
     *  multiset: which queue an access takes never shows, only when the
     *  earliest free one frees up, and every other queue is free. */
    bool
    captureTiming(Cycles now, std::vector<uint64_t> &state,
                  std::vector<uint64_t> &) const override
    {
        const size_t first = state.size();
        state.push_back(0);
        for (Cycles t : _nextFree)
            if (t > now)
                state.push_back(t - now);
        std::sort(state.begin() + first + 1, state.end());
        state[first] = state.size() - first - 1;
        return true;
    }
    void
    shiftTimes(Cycles now, Cycles by) override
    {
        for (Cycles &t : _nextFree)
            t = shifted(t, now, by);
        _maxNextFree = shifted(_maxNextFree, now, by);
    }

  private:
    std::vector<Cycles> _nextFree;
    /** Upper bound over _nextFree (monotone; enables the zero-cost
     *  acquire fast path above). */
    Cycles _maxNextFree = 0;
};

/**
 * A memory component. The base class charges `cyclesPerWord` of bank
 * occupancy per word accessed; subclasses override getReadOrWriteCycles
 * to implement richer models (caches, DRAM row policy, ...).
 */
class Memory : public Device {
  public:
    Memory(std::string name, std::string kind, std::vector<int64_t> shape,
           unsigned data_bits, unsigned banks, Cycles cycles_per_word)
        : Device(std::move(name), banks), _kind(std::move(kind)),
          _shape(std::move(shape)), _dataBits(data_bits),
          _cyclesPerWord(cycles_per_word)
    {}

    const std::string &kind() const { return _kind; }
    unsigned dataBits() const { return _dataBits; }
    const std::vector<int64_t> &shape() const { return _shape; }

    /**
     * Bank-occupancy cycles for accessing @p words words (§IV-D: the
     * method users override when extending the library).
     * @param is_write true for writes
     * @param words number of words touched
     */
    virtual Cycles
    getReadOrWriteCycles(bool is_write, int64_t words)
    {
        (void)is_write;
        return _cyclesPerWord * static_cast<Cycles>(words);
    }

    /// @name Bandwidth accounting
    /// @{
    void
    recordAccess(bool is_write, int64_t bytes)
    {
        (is_write ? _bytesWritten : _bytesRead) += bytes;
    }
    int64_t bytesRead() const { return _bytesRead; }
    int64_t bytesWritten() const { return _bytesWritten; }
    /// @}

    bool
    captureTiming(Cycles now, std::vector<uint64_t> &state,
                  std::vector<uint64_t> &counters) const override
    {
        Device::captureTiming(now, state, counters);
        counters.push_back(static_cast<uint64_t>(_bytesRead));
        counters.push_back(static_cast<uint64_t>(_bytesWritten));
        return true;
    }
    const uint64_t *
    addCounters(const uint64_t *delta, uint64_t times) override
    {
        addTimes(_bytesRead, delta[0], times);
        addTimes(_bytesWritten, delta[1], times);
        return delta + 2;
    }

  private:
    std::string _kind;
    std::vector<int64_t> _shape;
    unsigned _dataBits;
    Cycles _cyclesPerWord;
    int64_t _bytesRead = 0;
    int64_t _bytesWritten = 0;
};

/** An allocation placed on a Memory by equeue.alloc. */
struct BufferObj {
    Memory *mem = nullptr;
    TensorPtr data;
    std::string label; ///< printing/tracing aid

    int64_t sizeBytes() const { return data ? data->sizeBytes() : 0; }
};

// Forward declaration; definition lives in engine.cc.
struct Event;

/**
 * A processor executes launched code blocks from its FIFO event queue,
 * one at a time (§III-D). The cost table assigns per-op processor
 * occupancy by op name, resolved by kind (see costmodel.cc).
 */
class Processor : public Device {
  public:
    Processor(std::string name, std::string kind)
        : Device(std::move(name), /*num_queues=*/1), _kind(std::move(kind))
    {}

    const std::string &kind() const { return _kind; }
    /** The kind's resolved cost class; computed once, then cached so
     *  the engine's per-op cost lookup never touches the kind string
     *  (defined in costmodel.cc). */
    CostClass costClass() const;

    /// @name Event queue
    /// The FIFO of launched events waiting to issue, threaded through
    /// Event::nextQueued so queueing never allocates (maintained by the
    /// engine's event core, event_core.cc).
    /// @{
    bool queueEmpty() const { return _queueHead == nullptr; }
    Event *queueFront() const { return _queueHead; }
    void pushQueue(Event *ev);
    void popQueue();
    bool busy() const { return _busy; }
    void setBusy(bool b) { _busy = b; }
    /** An issue attempt is scheduled and has not fired yet. */
    bool issuePending() const { return _issuePending; }
    void setIssuePending(bool b) { _issuePending = b; }
    /// @}

    /// @name Utilization stats
    /// @{
    void recordBusy(Cycles cycles) { _busyCycles += cycles; }
    Cycles busyCycles() const { return _busyCycles; }
    void recordOp() { ++_opsExecuted; }
    uint64_t opsExecuted() const { return _opsExecuted; }
    /// @}

    bool
    captureTiming(Cycles now, std::vector<uint64_t> &state,
                  std::vector<uint64_t> &counters) const override
    {
        if (!queueEmpty())
            return false;
        Device::captureTiming(now, state, counters);
        state.push_back(_busy);
        counters.push_back(_busyCycles);
        counters.push_back(_opsExecuted);
        return true;
    }
    const uint64_t *
    addCounters(const uint64_t *delta, uint64_t times) override
    {
        _busyCycles += delta[0] * times;
        _opsExecuted += delta[1] * times;
        return delta + 2;
    }

  private:
    std::string _kind;
    Event *_queueHead = nullptr;
    Event *_queueTail = nullptr;
    bool _busy = false;
    bool _issuePending = false;
    Cycles _busyCycles = 0;
    uint64_t _opsExecuted = 0;
    mutable int8_t _costClassCache = -1; ///< lazily resolved CostClass
};

/** A DMA engine: a processor specialised for data movement. */
class Dma : public Processor {
  public:
    explicit Dma(std::string name)
        : Processor(std::move(name), "DMA")
    {}
};

/**
 * A bandwidth-constrained link (§III-A). Streaming connections carry
 * reads and writes on independent channels; Window connections lock the
 * single channel exclusively. Bandwidth 0 means unlimited.
 */
class Connection : public Component {
  public:
    Connection(std::string name, std::string kind, int64_t bytes_per_cycle)
        : Component(std::move(name)), _kind(std::move(kind)),
          _bw(bytes_per_cycle)
    {}

    const std::string &kind() const { return _kind; }
    bool isWindow() const { return _kind == "Window"; }
    int64_t bandwidth() const { return _bw; }
    bool unlimited() const { return _bw <= 0; }

    /** Cycles to move @p bytes across this link (0 when unlimited). */
    Cycles
    transferCycles(int64_t bytes) const
    {
        if (unlimited())
            return 0;
        return static_cast<Cycles>((bytes + _bw - 1) / _bw);
    }

    /**
     * Reserve the link channel. Window connections share one channel
     * between reads and writes; Streaming ones have two.
     * @return transfer start cycle (>= now).
     */
    Cycles
    acquireChannel(bool is_read, Cycles now, Cycles cycles)
    {
        // Zero-occupancy watermark short-circuit (the Connection twin
        // of Device::acquire's _maxNextFree fast path): a zero-cost
        // reservation on a wholly idle link starts at `now` and leaves
        // both channel watermarks untouched — the skipped stores would
        // only write values <= now, indistinguishable forever after
        // because engine time never moves backwards. Checking both
        // directions keeps Window exclusivity exact: any busy channel
        // falls through to the full accounting below.
        if (cycles == 0 && _readFree <= now && _writeFree <= now)
            return now;
        Cycles &free = (isWindow() || is_read) ? _readFree : _writeFree;
        Cycles start = std::max(now, free);
        free = start + cycles;
        if (isWindow()) {
            // Exclusive lock: both directions blocked.
            _writeFree = _readFree;
        }
        return start;
    }

    /** Record a completed transfer for bandwidth statistics. */
    void
    recordTransfer(bool is_read, Cycles start, Cycles end, int64_t bytes)
    {
        (is_read ? _readBytes : _writeBytes) += bytes;
        double rate = bytes / std::max<double>(1.0, double(end - start));
        if (rate > _maxRate) {
            _maxRate = rate;
            // Rates below the new band can never be at peak again.
            _atPeak.erase(std::remove_if(_atPeak.begin(), _atPeak.end(),
                                         [&](const PeakGroup &g) {
                                             return !atPeak(g.rate);
                                         }),
                          _atPeak.end());
        }
        if (!atPeak(rate))
            return;
        auto g = std::find_if(_atPeak.begin(), _atPeak.end(),
                              [&](const PeakGroup &g) {
                                  return g.rate == rate;
                              });
        if (g == _atPeak.end())
            g = _atPeak.insert(g, {rate, 0, 0});
        (is_read ? g->readCycles : g->writeCycles) += end - start;
    }

    /** The highest transfer rate so far, in bytes per cycle (a
     *  transfer takes at least one cycle); 0 before any traffic. */
    double maxRate() const { return _maxRate; }

    /** Cycles the @p is_read direction spent in transfers within 0.1%
     *  of maxRate(). */
    Cycles
    cyclesAtMaxRate(bool is_read) const
    {
        Cycles sum = 0;
        for (const PeakGroup &g : _atPeak)
            if (atPeak(g.rate))
                sum += is_read ? g.readCycles : g.writeCycles;
        return sum;
    }

    int64_t readBytes() const { return _readBytes; }
    int64_t writeBytes() const { return _writeBytes; }

    bool
    captureTiming(Cycles now, std::vector<uint64_t> &state,
                  std::vector<uint64_t> &counters) const override
    {
        state.push_back(sinceNow(_readFree, now));
        state.push_back(sinceNow(_writeFree, now));
        state.push_back(bitsOf(_maxRate));
        state.push_back(_atPeak.size());
        counters.push_back(static_cast<uint64_t>(_readBytes));
        counters.push_back(static_cast<uint64_t>(_writeBytes));
        for (const PeakGroup &g : _atPeak) {
            state.push_back(bitsOf(g.rate));
            counters.push_back(g.readCycles);
            counters.push_back(g.writeCycles);
        }
        return true;
    }
    const uint64_t *
    addCounters(const uint64_t *delta, uint64_t times) override
    {
        addTimes(_readBytes, *delta++, times);
        addTimes(_writeBytes, *delta++, times);
        for (PeakGroup &g : _atPeak) {
            g.readCycles += *delta++ * times;
            g.writeCycles += *delta++ * times;
        }
        return delta;
    }
    void
    shiftTimes(Cycles now, Cycles by) override
    {
        _readFree = shifted(_readFree, now, by);
        _writeFree = shifted(_writeFree, now, by);
    }

  private:
    static uint64_t
    bitsOf(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return bits;
    }

    /** Transfers of one rate that is (so far) within 0.1% of the max. */
    struct PeakGroup {
        double rate;
        Cycles readCycles, writeCycles;
    };

    bool
    atPeak(double rate) const
    {
        return _maxRate > 0 && rate >= _maxRate * 0.999;
    }

    std::string _kind;
    int64_t _bw;
    Cycles _readFree = 0;
    Cycles _writeFree = 0;
    int64_t _readBytes = 0;
    int64_t _writeBytes = 0;
    double _maxRate = 0.0;
    std::vector<PeakGroup> _atPeak;
};

/**
 * An AXI-stream style FIFO endpoint. Elements become visible to readers
 * at their arrival cycle; reads block until enough elements arrived.
 */
class StreamFifo : public Component {
  public:
    StreamFifo(std::string name, unsigned data_bits)
        : Component(std::move(name)), _dataBits(data_bits)
    {}

    unsigned dataBits() const { return _dataBits; }

    /** Push one element that becomes visible at @p ready. */
    void
    push(int64_t value, Cycles ready)
    {
        _fifo.push_back({ready, value});
        ++_totalPushed;
    }

    /** How many elements are visible at time @p now. */
    size_t
    available(Cycles now) const
    {
        size_t n = 0;
        for (const auto &e : _fifo) {
            if (e.ready <= now)
                ++n;
            else
                break;
        }
        return n;
    }

    /** Earliest cycle at which @p count elements are visible, or
     *  kNoReadyTime when fewer than @p count elements exist yet. */
    static constexpr Cycles kNoReadyTime = ~0ull;
    Cycles
    readyTime(size_t count) const
    {
        if (_fifo.size() < count)
            return kNoReadyTime;
        return _fifo[count - 1].ready;
    }

    /** Pop @p count elements (caller checked availability). */
    std::vector<int64_t>
    pop(size_t count)
    {
        std::vector<int64_t> out;
        out.reserve(count);
        for (size_t i = 0; i < count; ++i) {
            out.push_back(_fifo.front().value);
            _fifo.pop_front();
        }
        _totalPopped += count;
        return out;
    }

    size_t depth() const { return _fifo.size(); }
    uint64_t totalPushed() const { return _totalPushed; }
    uint64_t totalPopped() const { return _totalPopped; }

    /** The element values are data, not timing: only their arrival
     *  times are captured. */
    bool
    captureTiming(Cycles now, std::vector<uint64_t> &state,
                  std::vector<uint64_t> &counters) const override
    {
        state.push_back(_fifo.size());
        for (const Elem &e : _fifo)
            state.push_back(sinceNow(e.ready, now));
        counters.push_back(_totalPushed);
        counters.push_back(_totalPopped);
        return true;
    }
    const uint64_t *
    addCounters(const uint64_t *delta, uint64_t times) override
    {
        _totalPushed += delta[0] * times;
        _totalPopped += delta[1] * times;
        return delta + 2;
    }
    void
    shiftTimes(Cycles now, Cycles by) override
    {
        for (Elem &e : _fifo)
            e.ready = shifted(e.ready, now, by);
    }

  private:
    struct Elem {
        Cycles ready;
        int64_t value;
    };
    unsigned _dataBits;
    std::deque<Elem> _fifo;
    uint64_t _totalPushed = 0;
    uint64_t _totalPopped = 0;
};

/**
 * Factory for memory components, keyed by the `kind` string of
 * equeue.create_mem. Users register custom kinds (e.g. "Cache") to extend
 * the library without touching the engine (§IV-D).
 */
class ComponentFactory {
  public:
    using MemoryMaker = std::function<std::unique_ptr<Memory>(
        const std::string &name, std::vector<int64_t> shape,
        unsigned data_bits, unsigned banks)>;

    ComponentFactory();

    /** Register (or replace) a memory kind. */
    void registerMemoryKind(const std::string &kind, MemoryMaker maker);
    bool hasMemoryKind(const std::string &kind) const;
    /** Whether @p kind is one of the library's own kinds ("SRAM",
     *  "Register", "DRAM") and has not been re-registered. */
    bool isBuiltinKind(const std::string &kind) const;

    std::unique_ptr<Memory> makeMemory(const std::string &kind,
                                       const std::string &name,
                                       std::vector<int64_t> shape,
                                       unsigned data_bits,
                                       unsigned banks) const;

  private:
    struct Kind {
        MemoryMaker make;
        bool builtin;
    };
    std::unordered_map<std::string, Kind> _memoryKinds;
};

} // namespace sim
} // namespace eq

#endif // EQ_SIM_COMPONENT_HH

/**
 * @file
 * Driving dracod: set-up, the verdict gate, and the load loops.
 *
 * A Rig is one set-up service: a CheckService with the workload's
 * tenants and, for warm_unix, a SocketServer plus one client
 * connection. Batches reach it through a Transport — in-process
 * submitBatch or raw wire frames on the Unix socket — and come back as
 * completed Slots. The closed loop keeps a fixed window of batches
 * outstanding; the open loop sends batches on a fixed schedule and
 * times each from when it was due. Every response, in every phase,
 * goes through the Gate.
 */

#ifndef DRACOBENCH_LOAD_HH
#define DRACOBENCH_LOAD_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "inputs.hh"
#include "obs/serveobs.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "support/stats.hh"

namespace dracobench {

/** Shard worker threads of every workload's service. */
inline constexpr unsigned kShards = 2;

/** Resident-tenant cap of the churn service. */
inline constexpr uint32_t kChurnResidentCap = 1000;

/** @return steady_clock nanoseconds (the obs::StageRecord clock). */
inline uint64_t
nowNs()
{
    return draco::obs::nowNs();
}

/** @return The ids of this process's threads. */
std::vector<int> processThreads();

/** @return CPU seconds every thread of this process has run. */
double processCpuSeconds();

/**
 * @return CPU seconds thread @p tid has run, from its schedstat. The
 *         scheduler's run time excludes time the hypervisor stole from
 *         the vCPU, which on a shared VM is the dominant noise.
 */
double threadCpuSeconds(int tid);

/**
 * The verdict gate. A response passes when it is a verdict (not shed
 * or refused), carries an epoch the client could have seen for its
 * tenant, and agrees with FilterChain::run of that epoch's profile.
 * Epoch bounds are tracked per tenant: `published` is the epoch the
 * last finished swapProfile returned (a lower bound for any request
 * submitted afterwards) and `issued` counts swaps begun (an upper
 * bound for every response).
 */
class Gate
{
  public:
    explicit Gate(const Inputs &inputs);

    /** Forget every swap: a freshly created service is at epoch 1. */
    void resetEpochs();

    uint64_t published(uint32_t tenant) const
    {
        return _published[tenant].load(std::memory_order_acquire);
    }

    /** Begin a swap of @p tenant. @return The epoch it will publish. */
    uint64_t beginSwap(uint32_t tenant)
    {
        return _issued[tenant].fetch_add(1, std::memory_order_acq_rel) +
               1;
    }

    void endSwap(uint32_t tenant, uint64_t epoch)
    {
        _published[tenant].store(epoch, std::memory_order_release);
    }

    /**
     * Check the responses of @p batch, submitted when the tenant's
     * published epoch was @p epochLo. Client thread only.
     */
    void check(const BatchRef &batch, const draco::serve::CheckResponse *resps,
               uint64_t epochLo);

    /** Count @p n requests whose verdict never arrived. */
    void lost(uint64_t n);

    /** Count snapshot restores that failed closed. */
    void restoreFailures(uint64_t n) { _restoreFailures += n; }

    uint64_t attempted() const { return _attempted; }
    uint64_t failed() const
    {
        return _wrong + _refused + _lost + _restoreFailures;
    }
    uint64_t wrong() const { return _wrong; }
    uint64_t refused() const { return _refused; }
    uint64_t lostCount() const { return _lost; }

  private:
    const Inputs &_inputs;
    std::unique_ptr<std::atomic<uint64_t>[]> _issued;
    std::unique_ptr<std::atomic<uint64_t>[]> _published;
    uint64_t _attempted = 0;
    uint64_t _wrong = 0;   ///< Verdict or epoch disagrees.
    uint64_t _refused = 0; ///< Shed, unknown tenant, shutting down.
    uint64_t _lost = 0;
    uint64_t _restoreFailures = 0;
};

/** One set-up service with the workload's tenants. */
struct Rig {
    std::unique_ptr<draco::serve::CheckService> service;
    std::vector<draco::serve::TenantId> ids; ///< By tenant index.
    std::vector<int> threads; ///< The service's shard workers.
    double setupSeconds = 0.0;    ///< Wall time of setUp().
    double setupCpuSeconds = 0.0; ///< Process CPU time of setUp().
};

/**
 * Construct the service, create every tenant (compiling its policy)
 * and run @p warmup lock-step through the gate.
 */
Rig setUp(const Inputs &inputs, const std::vector<Step> &warmup, Gate &gate);

/** Per-tenant verdict fingerprints and path counts of a census. */
struct Census {
    std::vector<uint64_t> fingerprint; ///< FNV-1a per tenant.
    uint64_t paths[4] = {};            ///< By core::SwPath.
    uint64_t checks = 0;
    std::vector<uint8_t> pathLog;      ///< Path of every request.
    draco::serve::ServiceStatsSnapshot before, after;

    /** @return One digest over every tenant's fingerprint. */
    uint64_t digest() const;
};

/**
 * Run @p steps lock-step (one batch or swap at a time) through the
 * gate. With @p census set, also record paths and fingerprints.
 */
void runScript(const Inputs &inputs, Rig &rig,
               const std::vector<Step> &steps, Gate &gate,
               Census *census = nullptr);

/** A batch in flight. */
struct Slot {
    uint32_t index = 0;
    BatchRef batch;
    uint64_t epochLo = 1;
    uint64_t dueNs = 0;
    uint64_t doneNs = 0;
    bool traced = false;
    draco::obs::StageRecord rec;
    draco::serve::Batch done;
    draco::serve::CheckResponse resps[kBatch];
};

/** Slots with stable addresses, reused through a free list. */
class SlotPool
{
  public:
    Slot *acquire();
    void release(Slot *slot) { _free.push_back(slot); }
    Slot *at(uint32_t index)
    {
        return index < _slots.size() ? &_slots[index] : nullptr;
    }

  private:
    std::deque<Slot> _slots;
    std::vector<Slot *> _free;
};

/** Where batches go. */
class Transport
{
  public:
    virtual ~Transport() = default;

    /**
     * Send @p slot's batch, or queue it until the next flush().
     * @return false on transport failure.
     */
    virtual bool submit(Slot &slot) = 0;

    /** Send every queued batch. @return false on transport failure. */
    virtual bool flush() { return true; }

    /**
     * Append completed slots to @p out. With @p block, wait until at
     * least one completes or @p timeoutMs passes.
     *
     * @return false on transport failure.
     */
    virtual bool reap(bool block, int timeoutMs, std::vector<Slot *> &out) = 0;
};

/** CheckService::submitBatch in this process. */
class InprocTransport final : public Transport
{
  public:
    InprocTransport(const Inputs &inputs, Rig &rig)
        : _inputs(inputs), _rig(rig)
    {
    }

    bool submit(Slot &slot) override;
    bool reap(bool block, int timeoutMs, std::vector<Slot *> &out) override;

  private:
    const Inputs &_inputs;
    Rig &_rig;
    std::mutex _mutex;
    std::condition_variable _cv;
    std::vector<Slot *> _completed; ///< Guarded by _mutex.
    std::atomic<bool> _any{false};  ///< _completed is non-empty.
};

/**
 * Raw CheckBatch frames over one client connection. Frames queue until
 * flush(), which sends them in one write: the event loop then finds
 * whole frames, as many as the client had ready, on every read.
 */
class UnixTransport final : public Transport
{
  public:
    UnixTransport(const Inputs &inputs, Rig &rig, int fd, SlotPool &pool)
        : _inputs(inputs), _rig(rig), _fd(fd), _pool(pool)
    {
    }

    bool submit(Slot &slot) override;
    bool flush() override;
    bool reap(bool block, int timeoutMs, std::vector<Slot *> &out) override;

  private:
    const Inputs &_inputs;
    Rig &_rig;
    int _fd;
    SlotPool &_pool;
    draco::serve::wire::FrameParser _parser;
    std::vector<uint8_t> _payload;
    std::vector<uint8_t> _out; ///< Frames queued for flush().
    std::vector<uint8_t> _frame;
    std::vector<uint8_t> _chunk = std::vector<uint8_t>(64 * 1024);
    draco::serve::wire::CheckBatch _msg;
    draco::serve::wire::CheckBatchReply _reply;
};

/**
 * A SocketServer on the rig's service and one connected client. The
 * client is declared last so it disconnects before the server stops.
 */
struct Frontend {
    std::vector<int> threads; ///< The server's event loop.
    std::unique_ptr<draco::serve::SocketServer> server;
    std::unique_ptr<draco::serve::SocketClient> client;
};

/**
 * Start a one-loop server on @p socketPath and connect a client that
 * looks every tenant up through the idempotent create-by-name.
 *
 * @param traced Enable the server's observability endpoint (on an
 *        ephemeral localhost port) and keep every StageRecord.
 * @return A frontend with a null client on failure.
 */
Frontend startFrontend(const Inputs &inputs, Rig &rig,
                       const std::string &socketPath, bool traced);

/** What one timed phase measured. */
struct PhaseResult {
    uint64_t startNs = 0, endNs = 0;
    uint64_t verdicts = 0;
    bool ok = true; ///< No transport failure or lost batch.
    /** Closed loop: verdicts per wall second in each full window. */
    std::vector<double> windowRates;
    /**
     * Closed loop, for the half of the windows in which the busiest
     * service thread ran longest: the capacity of the bottleneck
     * stage. Each stage's capacity is its thread count times the
     * window's verdicts over the CPU seconds its threads ran; the least
     * of these is kept.
     */
    std::vector<double> windowCpuRates;
    /** Open loop: per-window batch-latency quantiles (µs). */
    std::vector<double> windowP50, windowP99;
    uint64_t latencySamples = 0;
    draco::QuantileSketch latenessUs;
    /** Open loop, traced in-process: every batch's StageRecord. */
    std::vector<draco::obs::StageRecord> records;
};

/** The service's threads, one list per stage every batch passes. */
using Stages = std::vector<std::vector<int>>;

/**
 * Closed loop: keep @p window batches outstanding for @p seconds.
 *
 * @param pipeline The service's stages (the shard workers; the event
 *        loop), whose threads are sampled for CPU time at each window.
 */
PhaseResult closedLoop(Transport &transport, SlotPool &pool,
                       Schedule &schedule, Gate &gate, double seconds,
                       unsigned window, bool traced, const Stages &pipeline);

/**
 * Open loop: send a batch every kBatch / @p rate seconds for
 * @p seconds, timing each from when it was due.
 */
PhaseResult openLoop(Transport &transport, SlotPool &pool,
                     Schedule &schedule, Gate &gate, double seconds,
                     double rate, bool traced);

/** One timed swapProfile call. */
struct SwapSample {
    uint64_t startNs = 0;
    double us = 0.0;
};

/**
 * Swaps the profile of the hot tenants, one every @p periodUs, on a
 * thread of its own until stopped, timing every swapProfile call.
 */
class Swapper
{
  public:
    Swapper(const Inputs &inputs, Rig &rig, Gate &gate, unsigned periodUs);
    ~Swapper();
    Swapper(const Swapper &) = delete;
    Swapper &operator=(const Swapper &) = delete;

    /** Stop and join. @return Every swap, in order. */
    std::vector<SwapSample> stop();

    /** @return false once any swap was refused. */
    bool ok() const { return !_failed.load(); }

  private:
    void run();

    const Inputs &_inputs;
    Rig &_rig;
    Gate &_gate;
    unsigned _periodUs;
    std::mutex _mutex;
    std::condition_variable _cv;
    bool _stop = false; ///< Guarded by _mutex.
    std::atomic<bool> _failed{false};
    std::vector<SwapSample> _swaps; ///< Written by the thread only.
    std::thread _thread;            ///< Last: uses the members above.
};

/**
 * A tail that host preemption cannot dominate: the @p q-quantile of
 * each kWindowNs window of @p samples in [@p startNs, @p endNs), then
 * the @p across-quantile of those per-window values.
 */
double windowedTail(const std::vector<SwapSample> &samples, uint64_t startNs,
                    uint64_t endNs, double q, double across);

/** Width of the windows throughput and latency are reported over. */
inline constexpr uint64_t kWindowNs = 100'000'000;

} // namespace dracobench

#endif // DRACOBENCH_LOAD_HH

#include "replay.hh"

#include <array>
#include <bit>
#include <deque>
#include <vector>

#include "api/workload_registry.hh"
#include "bench_core.hh"
#include "common/stats.hh"
#include "gpu/kernel_analysis.hh"
#include "mem/dram_sched.hh"
#include "microbench/pchase.hh"
#include "workloads/bfs.hh"
#include "workloads/compute_stream.hh"
#include "workloads/gemm.hh"
#include "workloads/histogram.hh"
#include "workloads/reduction.hh"
#include "workloads/scan.hh"
#include "workloads/spmv.hh"
#include "workloads/stencil.hh"
#include "workloads/transpose.hh"
#include "workloads/vecadd.hh"

namespace perfbench {

using namespace gpulat;

ParamMap
effectiveParams(const ExperimentSpec &spec)
{
    ParamMap params = WorkloadRegistry::instance().scaledParams(
        spec.workload, spec.scale);
    for (const std::string &a : spec.params) {
        auto [key, value] = ParamMap::splitAssignment(a);
        params.set(key, value);
    }
    return params;
}

namespace {

/** One launch shape and how many launches of the cell it stands for. */
struct Shape
{
    Kernel kernel;
    unsigned blocks = 1;
    unsigned threads = 1;
    std::vector<RegValue> params;
    double launches = 1.0;
};

/** The Gpu's bump allocator, replayed without device memory. */
struct Bump
{
    Addr brk = 0;

    Addr
    alloc(std::uint64_t bytes, std::uint64_t align = 256)
    {
        const Addr base = (brk + align - 1) & ~(align - 1);
        brk = base + bytes;
        return base;
    }
};

/** Keeps the replayed picks observable, so the loop is not discarded. */
volatile std::size_t pickSink = 0;

unsigned
blocksFor(std::uint64_t n, unsigned tpb)
{
    return static_cast<unsigned>((n + tpb - 1) / tpb);
}

/**
 * The launch shapes of each registry workload the benchmark runs,
 * following the workload sources (allocation order, grid, block,
 * parameter list). Empty for a workload not listed here.
 */
std::vector<Shape>
launchShapes(const std::string &name, const ParamMap &p,
             unsigned launches)
{
    Bump mem;
    std::vector<Shape> shapes;
    const double all = launches;
    if (name == "vecadd") {
        const std::uint64_t n = p.getU64("n", 65536);
        const unsigned tpb = p.getUnsigned("threadsPerBlock", 256);
        const Addr a = mem.alloc(n * 8), b = mem.alloc(n * 8),
                   c = mem.alloc(n * 8);
        shapes.push_back({VecAdd::buildKernel(), blocksFor(n, tpb), tpb,
                          {a, b, c, n}, all});
    } else if (name == "gemm") {
        const std::uint64_t n = p.getU64("n", 128);
        const Addr a = mem.alloc(n * n * 8), b = mem.alloc(n * n * 8),
                   c = mem.alloc(n * n * 8);
        const unsigned tiles = static_cast<unsigned>(n / 16);
        const auto shift =
            static_cast<RegValue>(std::countr_zero(tiles));
        shapes.push_back({Gemm::buildKernel(), tiles * tiles, 256,
                          {a, b, c, n, shift}, all});
    } else if (name == "compute_stream") {
        const std::uint64_t n = p.getU64("n", 32768);
        const unsigned depth = p.getUnsigned("fmaDepth", 32);
        const unsigned tpb = p.getUnsigned("threadsPerBlock", 256);
        const Addr x = mem.alloc(n * 8), y = mem.alloc(n * 8);
        shapes.push_back({ComputeStream::buildKernel(depth),
                          blocksFor(n, tpb), tpb,
                          {x, y, std::bit_cast<RegValue>(0.5), n},
                          all});
    } else if (name == "reduction") {
        const std::uint64_t n = p.getU64("n", 65536);
        const unsigned tpb = p.getUnsigned("threadsPerBlock", 256);
        const unsigned blocks = blocksFor(n, tpb);
        const Addr in = mem.alloc(n * 8), part = mem.alloc(blocks * 8);
        shapes.push_back({Reduction::buildKernel(tpb), blocks, tpb,
                          {in, part, n}, all});
    } else if (name == "bfs") {
        const std::uint64_t n = p.has("nodes")
            ? p.getU64("nodes", 16384)
            : std::uint64_t{1} << p.getUnsigned("scale", 14);
        const std::uint64_t edges = n * p.getU64("degree", 8);
        const unsigned tpb = p.getUnsigned("threadsPerBlock", 128);
        const Addr row = mem.alloc((n + 1) * 8),
                   col = mem.alloc(edges * 8), lvl = mem.alloc(n * 8),
                   chg = mem.alloc(8);
        shapes.push_back({Bfs::buildKernel(), blocksFor(n, tpb), tpb,
                          {row, col, lvl, 0, chg, n}, all});
    } else if (name == "stencil2d") {
        const unsigned w = p.getUnsigned("width", 256);
        const unsigned h = p.getUnsigned("height", 256);
        const std::uint64_t n = std::uint64_t{w} * h;
        const Addr a = mem.alloc(n * 8), b = mem.alloc(n * 8);
        shapes.push_back({Stencil2D::buildKernel(), h, w,
                          {a, b, std::bit_cast<RegValue>(0.25)}, all});
    } else if (name == "spmv") {
        const std::uint64_t rows = p.getU64("rows", 8192);
        const std::uint64_t nnz = rows * p.getU64("nnzPerRow", 16);
        const unsigned tpb = p.getUnsigned("threadsPerBlock", 128);
        const Addr row = mem.alloc((rows + 1) * 8),
                   col = mem.alloc(nnz * 8), val = mem.alloc(nnz * 8),
                   x = mem.alloc(rows * 8), y = mem.alloc(rows * 8);
        shapes.push_back({SpMV::buildKernel(), blocksFor(rows, tpb),
                          tpb, {row, col, val, x, y, rows}, all});
    } else if (name == "transpose_naive" || name == "transpose_tiled") {
        const unsigned n = p.getUnsigned("n", 256);
        const std::uint64_t elems = std::uint64_t{n} * n;
        const Addr in = mem.alloc(elems * 8), out = mem.alloc(elems * 8);
        if (name == "transpose_tiled") {
            const unsigned tiles = n / 32;
            shapes.push_back(
                {Transpose::buildTiledKernel(), tiles * tiles, 32,
                 {in, out, n,
                  static_cast<RegValue>(std::countr_zero(tiles))},
                 all});
        } else {
            shapes.push_back(
                {Transpose::buildNaiveKernel(), n, n, {in, out}, all});
        }
    } else if (name == "histogram") {
        const std::uint64_t n = p.getU64("n", 16384);
        const std::uint64_t bins = p.getU64("bins", 256);
        const unsigned tpb = p.getUnsigned("threadsPerBlock", 128);
        const Addr data = mem.alloc(n * 8), hist = mem.alloc(bins * 8);
        shapes.push_back({AtomicHistogram::buildKernel(),
                          blocksFor(n, tpb), tpb,
                          {data, hist, n, bins - 1}, all});
    } else if (name == "scan") {
        const std::uint64_t n = p.getU64("n", 16384);
        const unsigned tpb = p.getUnsigned("blockElems", 256);
        const unsigned blocks = blocksFor(n, tpb);
        const Addr in = mem.alloc(n * 8), out = mem.alloc(n * 8),
                   sums = mem.alloc(blocks * 8);
        Kernel scan = Scan::buildScanKernel();
        scan.sharedBytes = tpb * 8;
        shapes.push_back({scan, blocks, tpb, {in, out, sums, n}, all / 2});
        shapes.push_back({Scan::buildAddOffsetsKernel(), blocks, tpb,
                          {out, sums, n}, all / 2});
    } else if (name == "pchase") {
        const std::uint64_t footprint = p.getU64("footprintBytes", 65536);
        const std::uint64_t stride = p.getU64("strideBytes", 128);
        const std::uint64_t timed = p.getU64("timedAccesses", 2048);
        const std::uint64_t elems = footprint / stride;
        const std::uint64_t warmup = p.getBool("warmup", true)
            ? std::min<std::uint64_t>(elems, 64 * 1024) : 0;
        const Addr out = mem.alloc(16);
        if (p.getString("space", "global") == "local") {
            shapes.push_back({buildLocalChainInitKernel(elems, stride), 1,
                              1, {}, all / 2});
            shapes.push_back({buildChaseKernel(MemSpace::Local, warmup,
                                               timed),
                              1, 1, {0, out}, all / 2});
        } else {
            const Addr buf = mem.alloc(footprint, stride);
            shapes.push_back({buildChaseKernel(MemSpace::Global, warmup,
                                               timed),
                              1, 1, {buf, out}, all});
        }
    } else if (name == "serve.mixed") {
        // The serving kernel is compute_stream's instruction sequence
        // under a per-tenant name; tenants cycle small/medium/heavy.
        const unsigned tenants = p.getUnsigned("tenants", 3);
        const unsigned buffers = p.getUnsigned("buffers", 3);
        const double per_tenant = p.getUnsigned("launches", 12);
        for (unsigned t = 0; t < tenants; ++t) {
            static constexpr std::uint64_t kN[3] = {1024, 4096, 8192};
            static constexpr unsigned kDepth[3] = {8, 16, 24};
            static constexpr unsigned kTpb[3] = {128, 128, 256};
            const std::uint64_t n = kN[t % 3];
            const Addr x = mem.alloc(n * 8);
            const Addr y = mem.alloc(n * 8);
            for (unsigned j = 1; j < buffers; ++j)
                mem.alloc(n * 8);
            shapes.push_back({ComputeStream::buildKernel(kDepth[t % 3]),
                              blocksFor(n, kTpb[t % 3]), kTpb[t % 3],
                              {x, y, std::bit_cast<RegValue>(0.5), n},
                              per_tenant});
        }
    }
    return shapes;
}

} // namespace

AnalysisReplay
replayAnalysis(const ExperimentSpec &spec, const ExperimentRecord &rec)
{
    AnalysisReplay out;
    const std::vector<Shape> shapes =
        launchShapes(spec.workload, effectiveParams(spec), rec.launches);
    out.known = !shapes.empty();
    for (const Shape &s : shapes) {
        std::array<RegValue, kMaxParams> params{};
        std::copy(s.params.begin(), s.params.end(), params.begin());
        std::vector<double> per_call;
        const Clock::time_point begin = Clock::now();
        while (per_call.size() < 3 ||
               (per_call.size() < 50 &&
                secondsBetween(begin, Clock::now()) < 0.005)) {
            const Clock::time_point t0 = Clock::now();
            const SmParallelVerdict v = analyzeSmParallelSafety(
                s.kernel, s.blocks, s.threads, params);
            per_call.push_back(1e3 * secondsBetween(t0, Clock::now()));
            out.lastSafe = v.safe;
        }
        out.ms += median(per_call) * s.launches;
    }
    return out;
}

double
replayFrfcfsPickNs(const GpuConfig &cfg, std::uint64_t allocated)
{
    StatRegistry stats;
    DramChannel channel("replay", cfg.partition.dram, &stats);
    const std::uint64_t line = cfg.sm.lineBytes;
    const std::uint64_t lines = std::max<std::uint64_t>(
        allocated / line, 1);
    const std::size_t depth =
        std::max<std::size_t>(cfg.partition.dramQueueSize, 1);

    std::deque<MemRequest> queue;
    for (std::size_t k = 0; k < depth; ++k) {
        MemRequest req;
        req.lineAddr = (k * lines / depth) * line;
        req.sliceAddr = req.lineAddr / line / cfg.numPartitions * line;
        queue.push_back(req);
    }
    // Open the newest request's row, so the row-hit search walks the
    // whole queue, and stamp every request young enough that the
    // anti-starvation fallback stays off.
    const Cycle now = channel.schedule(queue.back().dramAddr(), false, 0) +
                      4096;
    for (MemRequest &req : queue)
        req.trace.dramEnq = now;

    constexpr int kCalls = 2000;
    std::vector<double> batches;
    std::size_t picked = 0;
    for (int b = 0; b < 7; ++b) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i) {
            picked += pickDramRequest(cfg.partition.sched, queue, channel,
                                      now,
                                      cfg.partition.dramStarvationLimit)
                          .value_or(0);
        }
        batches.push_back(1e9 * secondsBetween(t0, Clock::now()) /
                          kCalls);
    }
    pickSink = picked;
    return median(batches);
}

} // namespace perfbench

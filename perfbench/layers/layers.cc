/**
 * @file
 * perfbench_layers — the benchmark's traced per-layer probe.
 *
 * Links the confsim static libraries and times calls into each
 * layer's public functions, bottom-up: every layer is timed while the
 * layers below it already hold their results in the process-wide
 * caches, so a span measures its own layer only. Spans are kept in
 * memory as (name, start, end, id, parent, run) and written out once,
 * at exit, together with the work counts the per-layer ratios need.
 * The arithmetic (self time, sums, ratios) is done by the caller
 * (perfbench/stats.py), not here.
 *
 *   perfbench_layers --grid GRID.json --synthetic SAMPLED.json
 *                    --work DIR --jobs N > layers.json
 *
 * GRID is a recorded-workload sweep grid (no synthetic entries);
 * SAMPLED is a grid whose "synthetic" scenarios feed the generator
 * throughput probe. DIR receives two artifact directories and is
 * left for the caller to delete.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.hh"
#include "common/json.hh"
#include "harness/artifact_store.hh"
#include "harness/decoded_artifact.hh"
#include "harness/experiment_cache.hh"
#include "harness/parallel_runner.hh"
#include "harness/sweep.hh"
#include "harness/synthetic_workload.hh"
#include "workloads/workload.hh"

using namespace confsim;

namespace
{

using Clock = std::chrono::steady_clock;

/** One recorded span; times are ns since the probe started. */
struct SpanRecord
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = no parent
    std::uint64_t run = 0;
};

/** In-memory span sink; thread-safe so runner tasks can record. */
class Tracer
{
  public:
    std::int64_t now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin)
            .count();
    }

    std::uint64_t newId() { return ++lastId; }

    void record(SpanRecord span)
    {
        const std::lock_guard<std::mutex> lock(mtx);
        spans.push_back(std::move(span));
    }

    JsonValue toJson() const
    {
        const std::lock_guard<std::mutex> lock(mtx);
        JsonValue list = JsonValue::array();
        for (const SpanRecord &s : spans) {
            JsonValue v = JsonValue::array();
            v.push(JsonValue(s.name));
            v.push(JsonValue(s.start));
            v.push(JsonValue(s.end));
            v.push(JsonValue(s.id));
            v.push(JsonValue(s.parent));
            v.push(JsonValue(s.run));
            list.push(std::move(v));
        }
        return list;
    }

  private:
    const Clock::time_point origin = Clock::now();
    std::atomic<std::uint64_t> lastId{0};
    mutable std::mutex mtx;
    std::vector<SpanRecord> spans; ///< guarded by mtx
};

Tracer tracer;

/** RAII span: records [construction, destruction) into the tracer. */
class Span
{
  public:
    Span(std::string name, std::uint64_t run, std::uint64_t parent = 0)
    {
        rec.name = std::move(name);
        rec.run = run;
        rec.parent = parent;
        rec.id = tracer.newId();
        rec.start = tracer.now();
    }
    ~Span()
    {
        rec.end = tracer.now();
        tracer.record(std::move(rec));
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return rec.id; }

  private:
    SpanRecord rec;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench_layers: %s\n", msg.c_str());
    std::exit(2);
}

SweepGrid
loadGrid(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot open grid '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    std::string err;
    const JsonValue doc = JsonValue::parse(text.str(), &err);
    if (!err.empty())
        die(path + ": " + err);
    SweepGrid grid;
    if (!sweepGridFromJson(doc, grid, &err))
        die(path + ": " + err);
    return grid;
}

std::vector<PredictorKind>
gridKinds(const SweepGrid &grid)
{
    return grid.kinds.empty() ? std::vector<PredictorKind>{grid.kind}
                              : grid.kinds;
}

std::vector<WorkloadSpec>
gridSpecs(const SweepGrid &grid)
{
    const auto &all = standardWorkloads();
    if (grid.workloads.empty())
        return all;
    std::vector<WorkloadSpec> specs;
    for (const std::string &name : grid.workloads)
        for (const WorkloadSpec &s : all)
            if (s.name == name)
                specs.push_back(s);
    return specs;
}

JsonValue
cacheStatsJson(const ExperimentCacheStats &s)
{
    JsonValue v = JsonValue::object();
    v["program_hits"] = JsonValue(s.programHits);
    v["program_misses"] = JsonValue(s.programMisses);
    v["profile_hits"] = JsonValue(s.profileHits);
    v["profile_misses"] = JsonValue(s.profileMisses);
    v["recorded_hits"] = JsonValue(s.recordedHits);
    v["recorded_misses"] = JsonValue(s.recordedMisses);
    v["decoded_hits"] = JsonValue(s.decodedHits);
    v["decoded_misses"] = JsonValue(s.decodedMisses);
    return v;
}

std::uint64_t
directoryBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            total += e.file_size();
    return total;
}

/**
 * One ParallelRunner pass over every task of @p grid from empty
 * in-memory caches: a "runner" span whose children are the task
 * spans (overlapping when jobs > 1).
 */
void
runnerPass(const char *name, const SweepGrid &grid, unsigned jobs,
           std::uint64_t run)
{
    const SweepTaskPlan plan = sweepTaskPlan(grid);
    clearExperimentCaches();
    ParallelRunner runner(jobs);
    Span pass(name, run);
    const std::uint64_t parent = pass.id();
    const auto outcome = runner.mapReported(
            plan.tasks(), [&](TaskContext &ctx) {
                Span task("harness.task", run, parent);
                return sweepTaskPayloadJson(grid, ctx.index)
                    .dump(0)
                    .size();
            });
    if (!outcome.ok())
        die(std::string(name) + ": a task failed");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string gridPath, syntheticPath, workDir;
    unsigned jobs = ThreadPool::hardwareConcurrency();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            die(arg + " needs a value");
        const std::string val = argv[++i];
        if (arg == "--grid")
            gridPath = val;
        else if (arg == "--synthetic")
            syntheticPath = val;
        else if (arg == "--work")
            workDir = val;
        else if (arg == "--jobs")
            jobs = static_cast<unsigned>(std::stoul(val));
        else
            die("unknown option '" + arg + "'");
    }
    if (gridPath.empty() || syntheticPath.empty() || workDir.empty())
        die("usage: perfbench_layers --grid G --synthetic S "
            "--work DIR [--jobs N]");

    const SweepGrid grid = loadGrid(gridPath);
    const SweepGrid sampled = loadGrid(syntheticPath);
    if (!grid.synthetic.empty())
        die("--grid must name recorded workloads only");
    const std::vector<PredictorKind> kinds = gridKinds(grid);
    const std::vector<WorkloadSpec> specs = gridSpecs(grid);
    const WorkloadConfig &cfg = grid.workload;
    const PipelineConfig &pipeCfg = grid.pipeline;
    std::filesystem::create_directories(workDir);

    JsonValue counts = JsonValue::object();
    setGlobalArtifactStore(nullptr);
    clearExperimentCaches();

    // Bottom-up through the recorded path, one run per layer.
    std::uint64_t run = 1;
    for (const WorkloadSpec &spec : specs) {
        Span s("workloads.build", run);
        cachedProgram(spec, cfg);
    }
    ++run;
    for (PredictorKind kind : kinds)
        for (const WorkloadSpec &spec : specs) {
            Span s("harness.profile", run);
            cachedProfile(kind, spec, cfg);
        }
    ++run;
    std::uint64_t allInsts = 0, traceBytes = 0;
    std::vector<std::shared_ptr<const RecordedRun>> recorded;
    for (PredictorKind kind : kinds)
        for (const WorkloadSpec &spec : specs) {
            Span s("pipeline.record", run);
            recorded.push_back(
                    cachedRecordedRun(kind, spec, cfg, pipeCfg));
            allInsts += recorded.back()->pipe.allInsts;
            traceBytes += recorded.back()->trace.size();
        }
    ++run;
    std::uint64_t branches = 0;
    std::vector<std::shared_ptr<const DecodedRun>> decoded;
    for (PredictorKind kind : kinds)
        for (const WorkloadSpec &spec : specs) {
            Span s("sweep.decode", run);
            decoded.push_back(
                    cachedDecodedRun(kind, spec, cfg, pipeCfg));
            branches += decoded.back()->trace.size();
        }
    counts["sim_all_insts"] = JsonValue(allInsts);
    counts["trace_bytes"] = JsonValue(traceBytes);
    counts["branches"] = JsonValue(branches);

    // Shard tasks with every cache primed: pure replay.
    ++run;
    const SweepTaskPlan plan = sweepTaskPlan(grid);
    std::uint64_t laneBranches = 0;
    for (std::size_t t = 0; t < plan.tasks(); ++t) {
        const std::size_t entry =
            plan.kindIndex(t) * specs.size() + plan.entryIndex(t);
        Span s("sweep.task", run);
        sweepTaskPayloadJson(grid, t);
        laneBranches += decoded[entry]->trace.size()
                        * plan.configCount(t);
    }
    counts["task_lane_branches"] = JsonValue(laneBranches);

    ++run;
    const SweepResult result = runSweepGrid(grid, 0);
    {
        Span s("harness.emit", run);
        counts["emit_bytes"] = JsonValue(std::uint64_t{
                sweepResultToJson(result).dump(2).size()});
    }

    // Artifact layer on the same decoded runs, in a private store.
    ++run;
    const std::string directDir = workDir + "/direct";
    std::filesystem::remove_all(directDir);
    ArtifactStore direct(directDir);
    for (std::size_t i = 0; i < decoded.size(); ++i) {
        const std::string key = "perfbench-" + std::to_string(i);
        Span s("harness.artifact_write", run);
        const DecodedArtifactParts parts =
            encodeDecodedArtifact(*decoded[i]);
        if (!direct.storeMapped("decoded", key, parts.meta,
                                parts.sections)
            || !direct.store("recorded", key, recorded[i]->trace))
            die("artifact write failed");
    }
    counts["artifact_write_bytes"] =
        JsonValue(directoryBytes(directDir));
    ++run;
    std::vector<ArtifactStore::MappedArtifact> mapped(decoded.size());
    std::uint64_t mappedBytes = 0;
    for (std::size_t i = 0; i < decoded.size(); ++i) {
        const std::string key = "perfbench-" + std::to_string(i);
        Span s("harness.artifact_load", run);
        if (!direct.loadMapped("decoded", key, mapped[i]))
            die("artifact load missed");
        mappedBytes += mapped[i].file->size();
    }
    counts["artifact_load_bytes"] = JsonValue(mappedBytes);
    ++run;
    std::uint64_t digest = 0;
    for (const auto &art : mapped) {
        Span s("common.checksum", run);
        digest ^= xxhash64(art.file->data(), art.file->size());
    }
    counts["checksum_xor"] = JsonValue(hexDigest(digest));
    mapped.clear();
    recorded.clear();
    decoded.clear();

    // The runner as the CLI drives it: cold, then writing artifacts
    // through the real cache path, then warm from those artifacts.
    ++run;
    runnerPass("harness.runner.cold", grid, jobs, run);
    counts["cold_cache"] = cacheStatsJson(experimentCacheStats());

    ++run;
    const std::string storeDir = workDir + "/store";
    std::filesystem::remove_all(storeDir);
    auto store = std::make_shared<ArtifactStore>(storeDir);
    setGlobalArtifactStore(store);
    runnerPass("harness.runner.store", grid, jobs, run);
    counts["store_bytes"] = JsonValue(directoryBytes(storeDir));
    const ArtifactStoreStats before = store->stats();

    ++run;
    runnerPass("harness.runner.warm", grid, jobs, run);
    const ArtifactStoreStats after = store->stats();
    counts["warm_cache"] = cacheStatsJson(experimentCacheStats());
    counts["warm_artifact_loads"] =
        JsonValue(after.loads - before.loads);
    counts["warm_artifact_hits"] = JsonValue(after.hits - before.hits);
    setGlobalArtifactStore(nullptr);
    clearExperimentCaches();

    // Synthetic generator throughput: the floor of every sampled pass.
    ++run;
    std::uint64_t generated = 0;
    for (const SyntheticScenario &scn : sampled.synthetic) {
        const SyntheticWorkloadGenerator gen(scn);
        const std::uint64_t step = SyntheticOpSource::CHUNK_BRANCHES;
        Span s("harness.synthetic_generate", run);
        generated += gen.chunk(0, step)->size();
    }
    counts["synthetic_branches"] = JsonValue(generated);

    JsonValue doc = JsonValue::object();
#if defined(__OPTIMIZE__)
    doc["optimized"] = JsonValue(true);
#else
    doc["optimized"] = JsonValue(false);
#endif
    doc["jobs"] = JsonValue(std::uint64_t{jobs});
    doc["counts"] = counts;
    doc["spans"] = tracer.toJson();
    std::printf("%s\n", doc.dump(0).c_str());
    return 0;
}

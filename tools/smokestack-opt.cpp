//===- tools/smokestack-opt.cpp - Command-line pass driver ----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// opt-style driver: read a textual Mini-IR module, apply defense passes,
/// print and/or execute the result.
///
///   smokestack-opt [options] <file.ir | ->
///     -smokestack            apply the Smokestack pass
///     -static-perm[=SEED]    apply compile-time permutation
///     -entry-pad[=SEED]      apply Forrest-style entry padding
///     -canary[=GUARD]        apply the stack protector
///     -run=FUNC              execute FUNC in the VM after the passes
///     -rng=SCHEME            pseudo | aes1 | aes10 | rdrand  (default aes10)
///     -resilient             wrap the RNG in the fallback chain
///                            (scheme -> AES-10 -> fail closed)
///     -faults=SEED:RATE      run under a seeded fault-injection plan that
///                            fails DRNG draws and rekey entropy at RATE
///     -input=TEXT            queue TEXT as one input record (repeatable)
///     -workers=N             serve -run through a WorkerPool of N
///                            interpreter threads (0 = all cores); implies
///                            the pool's deterministic per-request RNG
///                            chain, so -rng/-resilient are ignored
///     -requests=M            pool mode: number of requests to serve
///                            (default 1); every request queues the same
///                            -input records
///     -seed=S                pool mode: root seed for per-request
///                            randomness derivation (default 7)
///     -chaos=RATE            pool mode: inject contained worker crashes at
///                            RATE (and hard worker deaths at RATE/5) per
///                            attempt; crashed requests retry under a
///                            per-request attempt budget and quarantine on
///                            exhaustion. The exact accounting identity
///                            (submitted == completed + shed + poisoned)
///                            is verified; a violation exits 3. A
///                            quarantine is booked, not failed: pool and
///                            serve runs exit 1 only when a request traps
///     -serve                 serve -run over loopback TCP through the
///                            epoll socket front-end (net/SocketServer.h)
///                            instead of submitting to the pool directly;
///                            an in-process client drives -requests=M
///                            requests through the wire as a self-test.
///                            SIGTERM requests a graceful stop: the server
///                            finishes what it can and drains
///     -shards=N              serve mode: number of WorkerPool shards
///                            behind the front-end (default 1); results
///                            are bit-identical at any shard count
///     -shard-mode=thread|process
///                            serve mode: run each shard as an in-process
///                            WorkerPool (thread, the default) or as a
///                            forked child process with crash containment
///                            and kill-and-replay (process); results are
///                            bit-identical in either mode
///     -drain-timeout=MS      serve mode: graceful-drain budget (default
///                            5000). If in-flight requests outlive it they
///                            are cancelled and poison-accounted, and the
///                            tool exits nonzero (exit code 4)
///     -fuel=N                VM step budget per request (default 2e8);
///                            mostly for tests that need a request to
///                            outlive the drain budget
///     -metrics=FILE          after -run: export every counter and latency
///                            histogram as Prometheus text to FILE and as
///                            smokestack-metrics-v1 JSON to FILE.json;
///                            enables obs timing (and, in pool mode,
///                            per-request span tracing), so latency
///                            histograms are populated
///     -print                 print the final module (default unless -run;
///                            with -run, printed before the run's output)
///     -verify                verify and report instead of printing
///     -stats                 without -run: print the stack-usage analysis;
///                            with -run: also print every nonzero counter
///                            (fault, degradation, VM bookkeeping) after
///                            execution
///
/// Numbers are decimal or 0x-hex and must be whole: a malformed value
/// ("10k", "abc", "-1", a rate outside [0,1]) or an unknown -rng/-engine/
/// -shard-mode name prints a diagnostic and the usage line, exit code 2.
///
/// Example:
///   smokestack-opt -smokestack -run=main -rng=aes10 program.ir
///
//===----------------------------------------------------------------------===//

#include "core/SmokestackPass.h"
#include "core/StackUsageAnalysis.h"
#include "defenses/BaselineDefenses.h"
#include "faults/FaultInjector.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "net/Client.h"
#include "net/SocketServer.h"
#include "obs/MetricsRegistry.h"
#include "obs/Trace.h"
#include "rng/AesCtr.h"
#include "rng/RdRand.h"
#include "rng/Resilient.h"
#include "rng/Schemes.h"
#include "runtime/WorkerPool.h"
#include "support/CommandLine.h"
#include "support/RawStream.h"
#include "support/Statistics.h"
#include "vm/Engine.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

using namespace smokestack;

namespace {

struct Options {
  PassManager Passes;
  std::string RunFunction;
  const RngScheme *Scheme = findRngScheme("aes10");
  VmEngine Engine = VmEngine::Decoded;
  std::vector<std::string> Inputs;
  std::string InputFile;
  bool Print = false;
  bool Verify = false;
  bool Stats = false;
  bool Resilient = false;
  bool Faults = false;
  uint64_t FaultSeed = 0;
  double FaultRate = 0.0;
  bool Pool = false;
  uint64_t PoolRequests = 1;
  bool Chaos = false;
  double ChaosRate = 0.0;
  bool Serve = false;
  uint64_t Fuel = 0; ///< 0 = interpreter default.
  std::string MetricsFile;
  /// -workers, -seed, -shards, -shard-mode and -drain-timeout land here
  /// directly; the pool and serve modes run under it.
  ServerOptions Serving;
};

/// The SIGTERM → requestStop() bridge for -serve. requestStop() is
/// async-signal-safe (atomic store + pipe write); the main thread sees
/// stopRequested() and performs the actual drain.
SocketServer *ServeInstance = nullptr;

void onSigTerm(int) {
  if (ServeInstance)
    ServeInstance->requestStop();
}

/// -metrics=PATH: exports every counter plus \p Sources' books to \p Path
/// (Prometheus text) and \p Path.json. True when there is no PATH; false
/// (with a diagnostic) when either write fails.
template <typename... Books>
bool writeMetrics(const std::string &Path, const Books &...Sources) {
  if (Path.empty())
    return true;
  MetricsRegistry Registry;
  (Sources.exportMetrics(Registry), ...);
  struct Target {
    std::string Path;
    std::string Content;
  } Targets[] = {{Path, Registry.exportText()},
                 {Path + ".json", Registry.exportJson()}};
  for (const Target &T : Targets) {
    std::ofstream Out(T.Path);
    Out << T.Content;
    if (!Out) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   T.Path.c_str());
      return false;
    }
  }
  std::printf("metrics: wrote %s and %s.json\n", Path.c_str(), Path.c_str());
  return true;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [-smokestack] [-static-perm[=SEED]] "
               "[-entry-pad[=SEED]] [-canary[=GUARD]]\n"
               "          [-run=FUNC] [-rng=pseudo|aes1|aes10|rdrand] "
               "[-engine=%s]\n"
               "          [-resilient] [-faults=SEED:RATE]\n"
               "          [-workers=N] [-requests=M] [-seed=S] "
               "[-chaos=RATE] [-metrics=FILE]\n"
               "          [-serve] [-shards=N] [-shard-mode=thread|process] "
               "[-drain-timeout=MS] [-fuel=N]\n"
               "          [-input=TEXT]... [-print] [-verify] [-stats] "
               "<file.ir|->\n",
               Argv0, VmEngineChoices);
  return 2;
}

/// Matches a pass flag spelled "NAME" or "NAME=VALUE": false when \p Arg
/// is neither; otherwise \p Value is VALUE, or \p Default for the bare
/// flag, and \p Ok is false on a malformed VALUE.
bool passFlag(const char *Arg, const char *Name, uint64_t Default,
              uint64_t &Value, bool &Ok) {
  Value = Default;
  const char *Rest = flagValue(Arg, Name);
  if (!Rest || (*Rest && *Rest != '='))
    return false;
  Ok = !*Rest || parseU64(Rest + 1, Value);
  return true;
}

/// Parses the SEED:RATE of -faults=.
bool parseFaultSpec(const char *Spec, uint64_t &Seed, double &Rate) {
  const char *Colon = std::strchr(Spec, ':');
  return Colon && parseU64(std::string(Spec, Colon).c_str(), Seed) &&
         parseRate(Colon + 1, Rate);
}

/// The -faults script, shared by the pool's per-request template and the
/// single VM's plan: DRNG step failures and rekey-entropy exhaustion at
/// \p Rate, AES-NI loss at a quarter of it.
void scriptFaults(double Rate, FaultPlan &Plan) {
  Plan.site(FaultSite::RdRandStep) = {Rate, RdRandSource::RetryLimit, 0};
  Plan.site(FaultSite::RekeyEntropy) = {Rate, 1, 0};
  Plan.site(FaultSite::AesNiPresence) = {Rate / 4, 1, 0};
}

/// The -stats dump of every nonzero counter after a run.
void printCounters() {
  std::printf("counters:\n");
  for (const Statistic *S : allStatistics())
    if (S->value() != 0)
      std::printf("  %10llu %-28s %s\n", (unsigned long long)S->value(),
                  S->name(), S->description());
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    const char *V = nullptr;
    uint64_t Seed = 0;
    bool Ok = true;
    if (std::strcmp(Arg, "-smokestack") == 0) {
      Opts.Passes.addPass(std::make_unique<SmokestackPass>());
    } else if (passFlag(Arg, "-static-perm", 1, Seed, Ok)) {
      Opts.Passes.addPass(std::make_unique<StaticPermutationPass>(Seed));
    } else if (passFlag(Arg, "-entry-pad", 1, Seed, Ok)) {
      Opts.Passes.addPass(std::make_unique<EntryPaddingPass>(Seed));
    } else if (passFlag(Arg, "-canary", 0x00ff1234cafe0000ULL, Seed, Ok)) {
      Opts.Passes.addPass(std::make_unique<StackCanaryPass>(Seed));
    } else if ((V = flagValue(Arg, "-run="))) {
      Opts.RunFunction = V;
    } else if ((V = flagValue(Arg, "-rng="))) {
      Ok = (Opts.Scheme = findRngScheme(V)) != nullptr;
    } else if ((V = flagValue(Arg, "-engine="))) {
      Ok = parseEngine(V, Opts.Engine);
    } else if ((V = flagValue(Arg, "-input="))) {
      Opts.Inputs.push_back(V);
    } else if ((V = flagValue(Arg, "-workers="))) {
      Opts.Pool = true;
      Ok = parseUnsigned(V, Opts.Serving.Pool.Workers);
    } else if ((V = flagValue(Arg, "-requests="))) {
      Ok = parseU64(V, Opts.PoolRequests);
    } else if ((V = flagValue(Arg, "-seed="))) {
      Ok = parseU64(V, Opts.Serving.Pool.RootSeed);
    } else if ((V = flagValue(Arg, "-chaos="))) {
      Opts.Chaos = true;
      Ok = parseRate(V, Opts.ChaosRate);
    } else if (std::strcmp(Arg, "-serve") == 0) {
      Opts.Serve = true;
    } else if ((V = flagValue(Arg, "-shards="))) {
      Ok = parseUnsigned(V, Opts.Serving.Shards);
    } else if ((V = flagValue(Arg, "-shard-mode="))) {
      bool Process = std::strcmp(V, "process") == 0;
      Ok = Process || std::strcmp(V, "thread") == 0;
      Opts.Serving.Mode = Process ? ShardMode::Process : ShardMode::Thread;
    } else if ((V = flagValue(Arg, "-drain-timeout=")) ||
               (V = flagValue(Arg, "--drain-timeout="))) {
      Ok = parseUnsigned(V, Opts.Serving.DrainTimeoutMillis);
    } else if ((V = flagValue(Arg, "-fuel="))) {
      Ok = parseU64(V, Opts.Fuel);
    } else if (std::strcmp(Arg, "-resilient") == 0) {
      Opts.Resilient = true;
    } else if ((V = flagValue(Arg, "-faults="))) {
      Opts.Faults = true;
      Ok = parseFaultSpec(V, Opts.FaultSeed, Opts.FaultRate);
    } else if ((V = flagValue(Arg, "-metrics="))) {
      Opts.MetricsFile = V;
      Ok = !Opts.MetricsFile.empty();
    } else if (std::strcmp(Arg, "-print") == 0) {
      Opts.Print = true;
    } else if (std::strcmp(Arg, "-verify") == 0) {
      Opts.Verify = true;
    } else if (std::strcmp(Arg, "-stats") == 0) {
      Opts.Stats = true;
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      std::fprintf(stderr, "unknown option: %s\n", Arg);
      return usage(argv[0]);
    } else {
      if (!Opts.InputFile.empty())
        return usage(argv[0]);
      Opts.InputFile = Arg;
    }
    if (!Ok) {
      std::fprintf(stderr, "error: malformed value in '%s'\n", Arg);
      return usage(argv[0]);
    }
  }
  if (Opts.InputFile.empty())
    return usage(argv[0]);

  // Read the module text.
  std::string Text;
  if (Opts.InputFile == "-") {
    char Chunk[4096];
    size_t Got;
    while ((Got = std::fread(Chunk, 1, sizeof(Chunk), stdin)) > 0)
      Text.append(Chunk, Got);
  } else {
    std::ifstream In(Opts.InputFile);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   Opts.InputFile.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Text = Buf.str();
  }

  ParseResult Parsed = parseModule(Text, Opts.InputFile);
  if (!Parsed.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", Opts.InputFile.c_str(),
                 Parsed.Error.c_str());
    return 1;
  }
  Module &M = *Parsed.M;

  std::vector<std::string> Errors;
  if (!verifyModule(M, &Errors)) {
    std::fprintf(stderr, "error: input module does not verify:\n");
    for (const std::string &E : Errors)
      std::fprintf(stderr, "  %s\n", E.c_str());
    return 1;
  }

  // Apply the requested passes in order.
  if (Opts.Passes.size())
    Opts.Passes.run(M);

  if (Opts.Stats && Opts.RunFunction.empty()) {
    RawFdOStream OS(stdout);
    printStackUsage(analyzeModuleStackUsage(M), OS);
    return 0;
  }

  if (Opts.Verify) {
    Errors.clear();
    bool Ok = verifyModule(M, &Errors);
    std::printf("%s\n", Ok ? "module verifies" : "module INVALID");
    for (const std::string &E : Errors)
      std::printf("  %s\n", E.c_str());
    return Ok ? 0 : 1;
  }

  // The final module: the default action without -run, and -print's
  // output ahead of a run's. Flushed before any shard process forks.
  if (Opts.Print || Opts.RunFunction.empty()) {
    RawFdOStream OS(stdout);
    M.print(OS);
    OS.flush();
  }

  if (!Opts.RunFunction.empty()) {
    PoolOptions &PO = Opts.Serving.Pool;
    InterpreterOptions &VMOpts = PO.InterpOpts;
    setEngine(VMOpts, availableEngine(Opts.Engine));
    if (Opts.Fuel)
      VMOpts.Fuel = Opts.Fuel;

    // -metrics wants the latency histograms populated, so turn on the
    // process-wide timing probes before anything serves.
    if (!Opts.MetricsFile.empty())
      enableObsTiming();

    if (Opts.Pool || Opts.Serve) {
      // Pool mode: the WorkerPool owns per-request deterministic RNG
      // chains and per-request fault injectors, so -rng/-resilient (and
      // the -faults seed) are superseded by -seed.
      PO.Function = Opts.RunFunction;
      if (Opts.Faults) {
        PO.InjectFaults = true;
        scriptFaults(Opts.FaultRate, PO.FaultTemplate);
      }
      if (Opts.Chaos)
        PO.scriptWorkerChaos(Opts.ChaosRate, Opts.ChaosRate / 5);

      std::vector<std::vector<uint8_t>> Records;
      for (const std::string &Input : Opts.Inputs)
        Records.emplace_back(Input.begin(), Input.end());

      TraceRecorder Recorder;
      if (!Opts.MetricsFile.empty())
        PO.Tracer = &Recorder;

      if (Opts.Serve) {
        // Serve mode: the identical pool configuration behind the epoll
        // socket front-end, self-tested by an in-process loopback client
        // pipelining the same requests through the wire protocol.
        ServerOptions &SO = Opts.Serving;
        SO.Shards = std::max(1u, SO.Shards);
        // Before any fork or socket write: SIGPIPE must be an errno and
        // the SIGCHLD fan-out handler must predate the first shard child.
        installServerSignalDefaults();
        SocketServer Server(M, SO);
        ServeInstance = &Server;
        std::signal(SIGTERM, onSigTerm);
        std::string Err;
        if (!Server.start(&Err)) {
          std::fprintf(stderr, "error: -serve: %s\n", Err.c_str());
          return 1;
        }
        std::printf("serve: listening on 127.0.0.1:%u (%u shards)\n",
                    Server.port(), SO.Shards);

        PipelineOptions Load;
        Load.TimeoutMillis = 2000;
        Load.Fill = [&](WireRequest &Req) { Req.Inputs = Records; };
        Load.Stop = [&] { return Server.stopRequested(); };
        PipelineResult Got =
            pipelineRequests(Server.port(), Opts.PoolRequests, Load);
        // A request that never answers stops the load here; the drain
        // below decides whether that is a timeout worth exit code 4.
        if (!Got.Ok)
          std::fprintf(stderr, "serve: load stopped: %s\n",
                       Got.Error.c_str());
        uint64_t Ok = 0, Trapped = 0, Poisoned = 0, Other = 0;
        for (const std::optional<WireResponse> &Resp : Got.Responses)
          if (Resp)
            ++(Resp->Status == WireStatus::Ok         ? Ok
               : Resp->Status == WireStatus::Trapped  ? Trapped
               : Resp->Status == WireStatus::Poisoned ? Poisoned
                                                      : Other);

        DrainReport Rep = Server.drain();
        std::signal(SIGTERM, SIG_DFL);
        ServeInstance = nullptr;

        std::printf("serve: %u shards, %llu sent, %llu answered, %llu ok, "
                    "%llu trapped, %llu poisoned, %llu other, "
                    "%llu delivered\n",
                    SO.Shards, (unsigned long long)Got.Sent,
                    (unsigned long long)Got.Answered, (unsigned long long)Ok,
                    (unsigned long long)Trapped, (unsigned long long)Poisoned,
                    (unsigned long long)Other,
                    (unsigned long long)Rep.Net.ResponsesDelivered);
        if (!writeMetrics(Opts.MetricsFile, Rep.Pool, Rep.Net, Recorder))
          return 1;
        if (!Rep.IdentityOk) {
          std::fprintf(stderr,
                       "error: wire accounting identity violated\n");
          return 3;
        }
        if (!Rep.Clean) {
          std::fprintf(stderr,
                       "drain: TIMEOUT after %u ms; %llu in-flight "
                       "request(s) poisoned\n",
                       SO.DrainTimeoutMillis,
                       (unsigned long long)Rep.Pool.Poisoned);
          return 4;
        }
        // A quarantined request is the supervision contract at work (the
        // identity above books it); a trap or a lost response fails.
        return Trapped == 0 && Other == 0 && Got.Ok ? 0 : 1;
      }

      WorkerPool Pool(M, PO);
      Pool.start();
      for (uint64_t I = 0; I != Opts.PoolRequests; ++I)
        Pool.submit({I, Records});
      std::vector<PoolOutcome> Outcomes = Pool.finish();

      uint64_t Ok = 0, Trapped = 0, Poisoned = 0;
      for (const PoolOutcome &O : Outcomes)
        ++(O.Poisoned ? Poisoned : O.ok() ? Ok : Trapped);
      const PoolBooks &B = Pool.books();
      std::printf("pool: %u workers, %llu requests, %llu ok, %llu trapped, "
                  "%llu poisoned\n",
                  Pool.workerCount(), (unsigned long long)Outcomes.size(),
                  (unsigned long long)Ok, (unsigned long long)Trapped,
                  (unsigned long long)Poisoned);
      if (Opts.Chaos)
        std::printf("supervision: %llu crashes contained, %llu deaths, "
                    "%llu restarts, %llu retries, %llu poisoned\n",
                    (unsigned long long)B.CrashesContained,
                    (unsigned long long)B.WorkerDeaths,
                    (unsigned long long)B.WorkerRestarts,
                    (unsigned long long)B.Retries,
                    (unsigned long long)B.Poisoned);
      if (!B.accountingIdentityHolds()) {
        std::fprintf(stderr,
                     "error: accounting identity violated: submitted %llu != "
                     "completed %llu + shed %llu + poisoned %llu\n",
                     (unsigned long long)B.Submitted,
                     (unsigned long long)B.Completed,
                     (unsigned long long)B.Shed,
                     (unsigned long long)B.Poisoned);
        return 3;
      }
      if (!Outcomes.empty() && Outcomes.front().ok())
        std::printf("-> %lld (after %llu steps)\n",
                    (long long)(int64_t)Outcomes.front().ReturnValue,
                    (unsigned long long)Outcomes.front().Steps);
      if (Opts.Stats) {
        printCounters();
        std::printf("rng: pool chain (%llu draws, %llu degraded, "
                    "%llu fail-closed)\n",
                    (unsigned long long)B.Rng.DrawsServed,
                    (unsigned long long)B.Rng.DegradedDraws,
                    (unsigned long long)B.Rng.FailClosedDraws);
        if (Opts.Faults)
          std::printf("faults: %llu injected, %llu events\n",
                      (unsigned long long)B.totalInjectedProbes(),
                      (unsigned long long)B.totalInjectedEvents());
      }
      if (!writeMetrics(Opts.MetricsFile, B, Recorder))
        return 1;
      // As in serve mode, only a trap fails the run, not a quarantine.
      return Trapped == 0 ? 0 : 1;
    }

    // The fault scope must cover RNG construction too: a plan that kills
    // rekey entropy from probe one must be able to hit the initial keying.
    FaultPlan Plan;
    Plan.Seed = Opts.FaultSeed;
    if (Opts.Faults)
      scriptFaults(Opts.FaultRate, Plan);
    FaultInjector Injector(Plan);
    std::unique_ptr<FaultScope> Scope;
    if (Opts.Faults)
      Scope = std::make_unique<FaultScope>(Injector);

    SystemEntropySource Entropy;
    std::unique_ptr<RandomSource> Rng = Opts.Scheme->Make(Entropy);
    std::unique_ptr<RandomSource> Fallback;
    std::optional<ResilientRandomSource> Resilient;
    RandomSource *Chain[] = {Rng.get(), nullptr};
    if (Opts.Resilient) {
      Fallback = std::make_unique<AesCtrRandomSource>(Entropy, 10);
      Chain[1] = Fallback.get();
      Resilient.emplace(Chain);
    }
    RandomSource *Active = Resilient ? &*Resilient : Rng.get();

    Interpreter VM(M, Active, VMOpts);
    for (const std::string &Input : Opts.Inputs)
      VM.pushInputString(Input);
    ExecResult R = VM.run(Opts.RunFunction);
    if (!VM.output().empty())
      std::fputs(VM.output().c_str(), stdout);

    int Exit = 0;
    if (!R.ok()) {
      std::fprintf(stderr, "trap: %s (%s)\n", trapKindName(R.Trap),
                   R.Message.c_str());
      Exit = 1;
    } else {
      std::printf("-> %lld (after %llu steps)\n",
                  (long long)(int64_t)R.ReturnValue,
                  (unsigned long long)R.Steps);
    }
    if (Opts.Stats) {
      printCounters();
      if (Resilient)
        std::printf("rng: %s (%llu draws, %llu degraded, %llu fail-closed)\n",
                    Resilient->name(),
                    (unsigned long long)Resilient->drawsServed(),
                    (unsigned long long)Resilient->degradedDraws(),
                    (unsigned long long)Resilient->failClosedDraws());
      if (Opts.Faults) {
        uint64_t Probes = 0;
        for (unsigned S = 0; S != NumFaultSites; ++S)
          Probes += Injector.probeCount(static_cast<FaultSite>(S));
        std::printf("faults: %llu probes, %llu injected, %llu events\n",
                    (unsigned long long)Probes,
                    (unsigned long long)Injector.totalInjectedProbes(),
                    (unsigned long long)Injector.totalInjectedEvents());
      }
    }
    return writeMetrics(Opts.MetricsFile) ? Exit : 1;
  }
  return 0;
}

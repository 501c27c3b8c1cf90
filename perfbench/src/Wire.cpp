//===- perfbench/src/Wire.cpp - The wire serving workload -----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The Smokestack-hardened Listing-1 server behind an in-process thread-mode
// SocketServer (2 shards x 1 worker, decoded engine). One generator thread
// drives two loopback connections; a receiver thread per connection reads
// the responses. Every eighth request replays a stale-disclosure DOP
// payload. An open-loop phase at a fixed offered rate gives latency timed
// from each request's due time; a closed-loop phase with a fixed in-flight
// window gives throughput.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "attacks/Attacker.h"
#include "attacks/Scenarios.h"
#include "defenses/Deploy.h"
#include "ir/IRBuilder.h"
#include "net/Client.h"
#include "net/FrameCodec.h"
#include "net/SocketServer.h"
#include "rng/AesCtr.h"
#include "rng/Entropy.h"
#include "runtime/DeriveSeed.h"
#include "runtime/RequestRng.h"
#include "runtime/WorkerPool.h"
#include "support/Fnv.h"

#include <atomic>
#include <memory>
#include <thread>

using namespace smokestack;

namespace perfbench {
namespace {

constexpr uint64_t BenignReturn = 13;
/// Offered rate of the open-loop phase: well under the closed-loop
/// capacity, so the queue stays short and latency is service time.
constexpr double OpenLoopRate = 5000;
constexpr unsigned Connections = 2;
/// Closed-loop in-flight window, far below the shards' queue capacity so
/// nothing is shed.
constexpr int Window = 64;
constexpr uint64_t MaxClosedLoopRequests = 2'000'000;
constexpr unsigned ClosedLoopWindows = 5;

bool isAttack(uint64_t Index) { return Index % 8 == 5; }

/// Paper Listing-1 shape: driver() runs the gadget dispatcher
/// (ctr/op/step/acc) around vuln(), whose 64-byte buffer get_input fills.
/// A benign request returns 13.
void buildListing1(Module &M) {
  IRBuilder B(M);
  Function *GetInput =
      M.getOrInsertDeclaration("get_input", B.i64(), {B.ptr()});

  Function *Vuln = M.createFunction("vuln", B.voidTy(), {});
  {
    IRBuilder VB(M);
    VB.setInsertPoint(Vuln->createBlock("entry"));
    AllocaInst *Local = VB.alloca_(VB.i64(), "vlocal");
    AllocaInst *Tmp =
        VB.alloca_(VB.getContext().getArrayTy(VB.i8(), 24), "vtmp");
    AllocaInst *Buff =
        VB.alloca_(VB.getContext().getArrayTy(VB.i8(), 64), "buff");
    VB.store(VB.constI64(0), Local);
    VB.store(VB.constI8(0), Tmp);
    VB.call(GetInput, {Buff});
    VB.ret();
  }

  Function *Driver = M.createFunction("driver", B.i64(), {});
  BasicBlock *Entry = Driver->createBlock("entry");
  BasicBlock *Loop = Driver->createBlock("loop");
  BasicBlock *Body = Driver->createBlock("body");
  BasicBlock *Chk1 = Driver->createBlock("chk1");
  BasicBlock *GAdd = Driver->createBlock("g_add");
  BasicBlock *GSub = Driver->createBlock("g_sub");
  BasicBlock *GSet = Driver->createBlock("g_set");
  BasicBlock *Latch = Driver->createBlock("latch");
  BasicBlock *Exit = Driver->createBlock("exit");

  B.setInsertPoint(Entry);
  // Gadget state plus unrelated locals, so the per-invocation permutation
  // has enough entropy that a replayed stale layout essentially never
  // recurs.
  AllocaInst *Ctr = B.alloca_(B.i64(), "ctr");
  AllocaInst *Op = B.alloca_(B.i64(), "op");
  AllocaInst *Step = B.alloca_(B.i64(), "step");
  AllocaInst *Acc = B.alloca_(B.i64(), "acc");
  AllocaInst *F1 = B.alloca_(B.getContext().getArrayTy(B.i8(), 24), "f1");
  AllocaInst *F2 = B.alloca_(B.i32(), "f2");
  AllocaInst *F3 = B.alloca_(B.i64(), "f3");
  AllocaInst *F4 = B.alloca_(B.getContext().getArrayTy(B.i8(), 16), "f4");
  AllocaInst *F5 = B.alloca_(B.i16(), "f5");
  B.store(B.constI64(0), Ctr);
  B.store(B.constI64(0), Op);
  B.store(B.constI64(1), Step);
  B.store(B.constI64(5), Acc);
  B.store(B.constI8(0), F1);
  B.store(B.constI32(0), F2);
  B.store(B.constI64(0), F3);
  B.store(B.constI8(0), F4);
  B.store(B.constInt(B.i16(), 0), F5);
  B.br(Loop);

  B.setInsertPoint(Loop);
  B.condBr(B.icmp(ICmpInst::Predicate::SLT, B.load(B.i64(), Ctr),
                  B.constI64(8)),
           Body, Exit);

  B.setInsertPoint(Body);
  B.call(Vuln, {});
  Value *OpV = B.load(B.i64(), Op);
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, OpV, B.constI64(0)), GAdd, Chk1);
  B.setInsertPoint(Chk1);
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, OpV, B.constI64(1)), GSub, GSet);

  B.setInsertPoint(GAdd);
  B.store(B.add(B.load(B.i64(), Acc), B.load(B.i64(), Step)), Acc);
  B.br(Latch);
  B.setInsertPoint(GSub);
  B.store(B.sub(B.load(B.i64(), Acc), B.load(B.i64(), Step)), Acc);
  B.br(Latch);
  B.setInsertPoint(GSet);
  B.store(OpV, Step);
  B.br(Latch);

  B.setInsertPoint(Latch);
  B.store(B.add(B.load(B.i64(), Ctr), B.constI64(1)), Ctr);
  B.br(Loop);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), Acc));
}

/// The attacker discloses one invocation's layout and builds the payload
/// that plants acc=DirectDopTarget, op=5, ctr=7 against it: valid for that
/// layout, stale for every later invocation. A disclosure whose targets
/// sit below the buffer is unusable; the attacker then looks again.
std::vector<uint8_t> discloseStalePayload(Module &M,
                                          const DeployedDefense &D,
                                          uint64_t Seed) {
  for (uint64_t Look = 0; Look != 64; ++Look) {
    LayoutOracle Oracle(/*KeepFirst=*/true);
    DeterministicEntropySource Entropy(
        deriveSeed(Seed, Look, SeedLane::AesEntropy) ^ 0x5354414c45ULL);
    AesCtrRandomSource Rng(Entropy, /*NumRounds=*/10);
    {
      Interpreter VM(M, &Rng, D.InterpOpts);
      VM.setLayoutObserver(&Oracle);
      VM.run("driver");
    }
    bool Known = Oracle.knows("vuln", "buff");
    for (const char *Var : {"ctr", "op", "step", "acc"})
      Known = Known && Oracle.knows("driver", Var);
    if (!Known)
      continue;
    auto Delta = [&](const char *Var) {
      return static_cast<int64_t>(Oracle.addressOf("driver", Var)) -
             static_cast<int64_t>(Oracle.addressOf("vuln", "buff"));
    };
    if (Delta("ctr") <= 0 || Delta("op") <= 0 || Delta("step") <= 0 ||
        Delta("acc") <= 0)
      continue;
    Payload P(0);
    P.pokeInt(static_cast<size_t>(Delta("acc")), DirectDopTarget);
    P.pokeInt(static_cast<size_t>(Delta("step")), 1);
    P.pokeInt(static_cast<size_t>(Delta("op")), 5);
    P.pokeInt(static_cast<size_t>(Delta("ctr")), 7);
    return P.bytes();
  }
  return {};
}

/// Order-independent outcome digest plus the per-op verdicts. Requests
/// arrive in any order over two connections, so the digest sums one FNV
/// hash per outcome; equal streams give equal sums.
struct Tally {
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  uint64_t Attacks = 0;
  uint64_t Defeated = 0;
  uint64_t Landed = 0;
  uint64_t Digest = 0;

  /// \p Served is false for a shed, poisoned or otherwise unserved op.
  void add(uint64_t Index, bool Served, TrapKind Trap, uint64_t Ret,
           uint64_t Steps) {
    ++Ops;
    Fnv64 H;
    H.mix(Index);
    H.mix(static_cast<uint64_t>(Trap));
    H.mix(Ret);
    H.mix(Steps);
    Digest += H.value();
    bool Clean = Served && Trap == TrapKind::None;
    if (isAttack(Index)) {
      ++Attacks;
      // A landed attack is the defense losing a round, which defeat_rate
      // reports; the op itself was served as the program promises.
      bool Hit = Clean && Ret == DirectDopTarget;
      Defeated += !Hit;
      Landed += Hit;
      Failed += !Served;
    } else if (!Clean || Ret != BenignReturn) {
      ++Failed;
    }
  }
  void addWire(const WireResponse &W) {
    bool Served =
        W.Status == WireStatus::Ok || W.Status == WireStatus::Trapped;
    add(W.Index, Served, W.Trap, W.ReturnValue, W.Steps);
  }
  void addPool(const PoolOutcome &O) {
    add(O.Index, !O.Poisoned, O.Trap, O.ReturnValue, O.Steps);
  }
  Tally &operator+=(const Tally &O) {
    Ops += O.Ops;
    Failed += O.Failed;
    Attacks += O.Attacks;
    Defeated += O.Defeated;
    Landed += O.Landed;
    Digest += O.Digest;
    return *this;
  }
};

PoolOptions poolOptions(uint64_t Seed, const DeployedDefense &D,
                        unsigned Workers) {
  PoolOptions PO;
  PO.Workers = Workers;
  PO.RootSeed = Seed;
  PO.QueueCapacity = 256;
  PO.Function = "driver";
  PO.InterpOpts = D.InterpOpts;
  return PO;
}

/// What one load phase measured.
struct Phase {
  Tally T;
  uint64_t Missing = 0;
  double Seconds = 0;
  std::vector<double> LatencyUs; ///< Due -> response (open loop).
  std::vector<double> RttUs;     ///< Send -> response (open loop).
  std::vector<double> LagUs;     ///< Due -> send (open loop).
};

/// The served module, its deployment, the attacker's payload, the running
/// server and the generator's two connections.
class WireSession {
public:
  /// Builds and starts everything a request needs. Null on failure.
  static std::unique_ptr<WireSession> open(uint64_t Seed, RunResult &R) {
    auto S = std::unique_ptr<WireSession>(new WireSession());
    S->M = std::make_unique<Module>("perfbench-wire");
    buildListing1(*S->M);
    S->Deployed = deployDefense(*S->M, DefenseKind::Smokestack, Seed);
    S->Stale = discloseStalePayload(*S->M, S->Deployed, Seed);
    if (S->Stale.empty()) {
      R.fail("wire: no usable layout disclosure");
      return nullptr;
    }
    ServerOptions SO;
    SO.Shards = 2;
    SO.Mode = ShardMode::Thread;
    SO.Pool = poolOptions(Seed, S->Deployed, /*Workers=*/1);
    S->Server = std::make_unique<SocketServer>(*S->M, SO);
    std::string Err;
    if (!S->Server->start(&Err)) {
      R.fail("wire: server start failed: " + Err);
      return nullptr;
    }
    for (BlockingClient &C : S->Conns)
      if (!C.connectTo(S->Server->port(), &Err)) {
        R.fail("wire: connect failed: " + Err);
        S->Server->drain();
        return nullptr;
      }
    return S;
  }

  ~WireSession() {
    if (Server)
      close();
  }

  WireRequest request(uint64_t Index) const {
    WireRequest Req;
    Req.Index = Index;
    if (isAttack(Index))
      Req.Inputs.push_back(Stale);
    return Req;
  }

  /// Sends \p N requests from index \p First at \p Rate per second, each
  /// at its due time whatever the responses do.
  Phase openLoop(uint64_t First, uint64_t N, double Rate, SpanLog *S) {
    Phase P;
    std::vector<uint64_t> Due(N), Sent(N), Recv(N, 0);
    Pump Pu(*this, First, N, &Recv);
    const uint64_t T0 = nowNs() + 1'000'000;
    for (uint64_t I = 0; I != N; ++I) {
      Due[I] = T0 + static_cast<uint64_t>(static_cast<double>(I) * 1e9 / Rate);
      sleepUntil(Due[I]);
      Sent[I] = nowNs();
      Pu.send(First + I);
    }
    Pu.finish(P);
    P.Seconds = secondsSince(T0);
    for (uint64_t I = 0; I != N; ++I) {
      if (!Recv[I])
        continue;
      P.LatencyUs.push_back(static_cast<double>(Recv[I] - Due[I]) * 1e-3);
      P.RttUs.push_back(static_cast<double>(Recv[I] - Sent[I]) * 1e-3);
      P.LagUs.push_back(static_cast<double>(Sent[I] - Due[I]) * 1e-3);
      if (S) {
        uint32_t Op = S->record("wire.request", First + I, 0, Due[I], Recv[I]);
        S->record("wire.generator_lag", First + I, Op, Due[I], Sent[I]);
        S->record("wire.round_trip", First + I, Op, Sent[I], Recv[I]);
      }
    }
    return P;
  }

  /// Keeps Window requests in flight for \p Seconds, from index \p First.
  /// Returns the phase; NextIndex advances past the last request sent.
  Phase closedLoop(uint64_t First, double Seconds, SpanLog *S,
                   uint64_t &NextIndex) {
    Phase P;
    std::vector<uint64_t> Recv;
    std::vector<uint64_t> Sent;
    if (S) {
      Recv.assign(MaxClosedLoopRequests, 0);
      Sent.assign(MaxClosedLoopRequests, 0);
    }
    Pump Pu(*this, First, MaxClosedLoopRequests, S ? &Recv : nullptr);
    const uint64_t T0 = nowNs();
    const uint64_t End = T0 + static_cast<uint64_t>(Seconds * 1e9);
    uint64_t I = 0;
    while (I != MaxClosedLoopRequests && nowNs() < End) {
      Pu.waitForRoom();
      if (S)
        Sent[I] = nowNs();
      Pu.send(First + I);
      ++I;
    }
    Pu.finish(P, I);
    P.Seconds = secondsSince(T0);
    NextIndex = First + I;
    if (S)
      for (uint64_t J = 0; J != I; ++J)
        if (Recv[J])
          S->record("wire.request", First + J, 0, Sent[J], Recv[J]);
    return P;
  }

  DrainReport close() {
    for (BlockingClient &C : Conns)
      C.closeConn();
    DrainReport Rep = Server->drain();
    Server.reset();
    return Rep;
  }

  Module &module() { return *M; }
  const DeployedDefense &deployed() const { return Deployed; }

private:
  WireSession() = default;

  /// The receiving half of a phase: one thread per connection reads
  /// responses, books them, and frees window slots for the generator.
  class Pump {
  public:
    Pump(WireSession &S, uint64_t First, uint64_t Cap,
         std::vector<uint64_t> *RecvNs)
        : S(S), First(First), Got(Cap, 0), RecvNs(RecvNs) {
      for (unsigned C = 0; C != Connections; ++C)
        Readers[C] = std::thread([this, C] { readerMain(C); });
    }
    ~Pump() {
      Done.store(true);
      for (std::thread &T : Readers)
        if (T.joinable())
          T.join();
    }

    void send(uint64_t Index) {
      unsigned C = static_cast<unsigned>(Index % Connections);
      InFlight.fetch_add(1, std::memory_order_relaxed);
      if (!S.Conns[C].sendRequest(S.request(Index)))
        SendFailed.store(true);
      SentCount[C].fetch_add(1, std::memory_order_release);
    }

    void waitForRoom() {
      int Cur = InFlight.load(std::memory_order_acquire);
      while (Cur >= Window && !ReaderFailed.load()) {
        InFlight.wait(Cur);
        Cur = InFlight.load(std::memory_order_acquire);
      }
    }

    /// Joins the readers and books every request not answered.
    void finish(Phase &P, uint64_t Sent = UINT64_MAX) {
      Done.store(true, std::memory_order_release);
      for (std::thread &T : Readers)
        T.join();
      for (const Tally &T : Tallies)
        P.T += T;
      if (Sent == UINT64_MAX)
        Sent = Got.size();
      for (uint64_t I = 0; I != Sent; ++I)
        if (!Got[I]) {
          ++P.Missing;
          P.T.add(First + I, false, TrapKind::None, 0, 0);
        }
    }

  private:
    void readerMain(unsigned C) {
      uint64_t Received = 0;
      uint64_t LastProgress = nowNs();
      for (;;) {
        if (Done.load(std::memory_order_acquire) &&
            Received == SentCount[C].load(std::memory_order_acquire))
          return;
        WireResponse Resp;
        if (!S.Conns[C].recvResponse(Resp, /*TimeoutMillis=*/50)) {
          if (S.Conns[C].peerClosed() || SendFailed.load() ||
              nowNs() - LastProgress > 20'000'000'000ULL) {
            fault();
            return;
          }
          continue;
        }
        uint64_t Now = nowNs();
        LastProgress = Now;
        uint64_t Slot = Resp.Index - First;
        if (Resp.Index < First || Slot >= Got.size() || Got[Slot] ||
            Resp.Index % Connections != C) {
          fault();
          return;
        }
        Got[Slot] = 1;
        if (RecvNs)
          (*RecvNs)[Slot] = Now;
        Tallies[C].addWire(Resp);
        ++Received;
        InFlight.fetch_sub(1, std::memory_order_release);
        InFlight.notify_one();
      }
    }
    void fault() {
      ReaderFailed.store(true);
      InFlight.fetch_sub(Window, std::memory_order_release);
      InFlight.notify_one();
    }

    WireSession &S;
    const uint64_t First;
    /// One byte per request; each slot is written by the one reader
    /// whose connection carried it and read after the joins.
    std::vector<uint8_t> Got;
    std::vector<uint64_t> *RecvNs;
    Tally Tallies[Connections];
    std::atomic<int> InFlight{0};
    std::atomic<uint64_t> SentCount[Connections] = {};
    std::atomic<bool> Done{false};
    std::atomic<bool> SendFailed{false};
    std::atomic<bool> ReaderFailed{false};
    std::thread Readers[Connections];
  };

  std::unique_ptr<Module> M;
  DeployedDefense Deployed;
  std::vector<uint8_t> Stale;
  std::unique_ptr<SocketServer> Server;
  BlockingClient Conns[Connections];
};

/// The in-process reference: the same request stream through one
/// WorkerPool, digested the same way as the wire responses.
Tally referenceTally(WireSession &S, uint64_t Seed, uint64_t N) {
  WorkerPool Pool(S.module(), poolOptions(Seed, S.deployed(), 2));
  Pool.start();
  for (uint64_t I = 0; I != N; ++I) {
    WireRequest W = S.request(I);
    Pool.submit(PoolRequest{W.Index, std::move(W.Inputs)});
  }
  Tally T;
  for (const PoolOutcome &O : Pool.finish())
    T.addPool(O);
  return T;
}

/// The drain-time contract: clean drain, both accounting identities, every
/// request delivered, nothing shed or poisoned.
void checkDrain(const DrainReport &Rep, uint64_t Requests, RunResult &R) {
  if (!Rep.Clean)
    R.fail("wire: drain was not clean");
  if (!Rep.IdentityOk || !Rep.Net.wireIdentityHolds(Rep.Pool))
    R.fail("wire: wire accounting identity does not hold");
  if (!Rep.Pool.accountingIdentityHolds())
    R.fail("wire: pool accounting identity does not hold");
  if (Rep.Net.ResponsesDelivered != Requests)
    R.fail("wire: " + std::to_string(Rep.Net.ResponsesDelivered) +
           " responses delivered for " + std::to_string(Requests) +
           " requests");
  if (Rep.Net.WireShed || Rep.Pool.Poisoned)
    R.fail("wire: requests were shed or poisoned");
}

void checkPhase(const Phase &P, const char *Name, RunResult &R) {
  if (P.Missing)
    R.fail(std::string("wire: ") + Name + ": " + std::to_string(P.Missing) +
           " requests unanswered");
  if (P.T.Failed)
    R.fail(std::string("wire: ") + Name + ": " + std::to_string(P.T.Failed) +
           " failed ops");
}

} // namespace

void runWire(const Options &O, RunResult &R) {
  SetupSampler Setups([&] { return WireSession::open(O.Seed, R); });
  std::unique_ptr<WireSession> S = Setups.upFront();
  const double SetupS = Setups.fastestSeconds();
  if (!S)
    return;
  R.fact("engine", "\"decoded\"");

  const uint64_t OpenN =
      static_cast<uint64_t>(OpenLoopRate * O.Seconds * 0.5);
  Phase Open = S->openLoop(0, OpenN, OpenLoopRate, nullptr);
  checkPhase(Open, "open loop", R);
  // Memory after a fixed request count; the closed loop's count follows
  // the machine's speed.
  const double RssMb = peakRssMb();
  // The closed loop in windows, each its own phase.
  uint64_t Next = OpenN;
  Tally Wire = Open.T;
  std::vector<double> Rates;
  uint64_t ClosedOps = 0;
  for (unsigned W = 0; W != ClosedLoopWindows; ++W) {
    Phase Closed = S->closedLoop(Next, O.Seconds * 0.5 / ClosedLoopWindows,
                                 nullptr, Next);
    checkPhase(Closed, "closed loop", R);
    Rates.push_back(static_cast<double>(Closed.T.Ops - Closed.Missing) /
                    Closed.Seconds);
    ClosedOps += Closed.T.Ops;
    Wire += Closed.T;
  }
  DrainReport Rep = S->close();
  checkDrain(Rep, Next, R);
  Tally Ref = referenceTally(*S, O.Seed, Next);
  if (Ref.Digest != Wire.Digest || Ref.Ops != Wire.Ops)
    R.fail("wire: wire outcome digest differs from the in-process pool");
  if (Ref.Failed)
    R.fail("wire: in-process reference has failed outcomes");
  R.ops(Wire.Ops, Wire.Failed);
  R.fact("attacks_landed", std::to_string(Wire.Landed));

  R.add("ops_per_s", median(Rates), "1/s");
  R.add("latency_p90_us",
        median(perWindow(Open.LatencyUs, MetricWindows, TailQuantile)), "us");
  R.add("defeat_rate",
        Wire.Attacks ? static_cast<double>(Wire.Defeated) /
                           static_cast<double>(Wire.Attacks)
                     : 0,
        "ratio");
  R.add("setup_s", SetupS, "s");
  R.add("peak_rss_mb", RssMb, "MB");
  R.samples("ops_per_s", ClosedOps);
  R.samples("latency_p90_us", Open.LatencyUs.size());
  R.samples("defeat_rate", Wire.Attacks);
  R.samples("setup_s", SetupReps);
}

void traceWire(const Options &O, double Budget, bool Home, RunResult &R,
               SpanLog &Spans) {
  // The same seeded open-loop stream at the same pacing, three times:
  // runRequest alone, WorkerPool::submit, and over the socket.
  const double Replay = Budget * (Home ? 0.2 : 0.3);
  const uint64_t N = std::max<uint64_t>(
      64, static_cast<uint64_t>(OpenLoopRate * Replay));
  auto S = WireSession::open(O.Seed, R);
  if (!S)
    return;

  // 1. vm: one Interpreter serving the stream through runRequest, its
  // randomness chain reseeded per request as a pool worker does.
  std::vector<double> ReseedUs, BenignUs, AttackUs, Steps, Calls;
  Tally VmTally;
  {
    Interpreter VM(S->module(), nullptr, S->deployed().InterpOpts);
    RequestRng Rng(PoolOptions().Rng);
    const uint64_t T0 = nowNs() + 1'000'000;
    for (uint64_t I = 0; I != N; ++I) {
      uint64_t Due =
          T0 + static_cast<uint64_t>(static_cast<double>(I) * 1e9 /
                                     OpenLoopRate);
      sleepUntil(Due);
      uint64_t A = nowNs();
      Rng.reseed(O.Seed, I);
      VM.setRandomSource(&Rng.source());
      uint64_t B = nowNs();
      if (isAttack(I))
        VM.pushInput(S->request(I).Inputs.front());
      ExecResult E = VM.runRequest("driver");
      uint64_t C = nowNs();
      VmTally.add(I, true, E.Trap, E.ReturnValue, E.Steps);
      ReseedUs.push_back(static_cast<double>(B - A) * 1e-3);
      (isAttack(I) ? AttackUs : BenignUs)
          .push_back(static_cast<double>(C - B) * 1e-3);
      uint32_t Op = Spans.record("wire.vm.request", I, 0, A, C);
      Spans.record("runtime.reseed", I, Op, A, B);
      Spans.record("vm.runRequest", I, Op, B, C);
    }
  }

  // 2. runtime: the stream through WorkerPool::submit at the same pacing,
  // timed to the OnOutcome hook.
  std::vector<uint64_t> SubmitAt(N), OutcomeAt(N, 0);
  std::vector<double> SubmitNs, ToOutcomeUs;
  Tally PoolTally;
  PoolBooks Books;
  {
    PoolOptions PO = poolOptions(O.Seed, S->deployed(), 2);
    PO.OnOutcome = [&OutcomeAt, N](const PoolOutcome &Out) {
      if (Out.Index < N)
        OutcomeAt[Out.Index] = nowNs();
    };
    WorkerPool Pool(S->module(), PO);
    Pool.start();
    const uint64_t T0 = nowNs() + 1'000'000;
    for (uint64_t I = 0; I != N; ++I) {
      sleepUntil(T0 + static_cast<uint64_t>(static_cast<double>(I) * 1e9 /
                                            OpenLoopRate));
      WireRequest W = S->request(I);
      PoolRequest Req{I, std::move(W.Inputs)};
      SubmitAt[I] = nowNs();
      if (!Pool.submit(std::move(Req)))
        R.fail("wire: pool shed a traced request");
      SubmitNs.push_back(static_cast<double>(nowNs() - SubmitAt[I]));
    }
    for (const PoolOutcome &Out : Pool.finish())
      PoolTally.addPool(Out);
    Books = Pool.books();
    for (uint64_t I = 0; I != N; ++I) {
      if (!OutcomeAt[I])
        continue;
      ToOutcomeUs.push_back(static_cast<double>(OutcomeAt[I] - SubmitAt[I]) *
                            1e-3);
      uint32_t Op =
          Spans.record("wire.pool.request", I, 0, SubmitAt[I], OutcomeAt[I]);
      Spans.record("runtime.submit", I, Op, SubmitAt[I],
                   SubmitAt[I] + static_cast<uint64_t>(SubmitNs[I]));
    }
  }

  // 3. net: the stream over the socket, then (home run only) the
  // closed loop untraced and traced, alternating, for the trace cost.
  Phase Net = S->openLoop(0, N, OpenLoopRate, &Spans);
  uint64_t Next = N;
  double Untraced = 0, Traced = 0;
  if (Home) {
    const double Slice = Budget * 0.1;
    for (unsigned Rep = 0; Rep != 2; ++Rep) {
      Phase A = S->closedLoop(Next, Slice, nullptr, Next);
      Phase B = S->closedLoop(Next, Slice, &Spans, Next);
      checkPhase(A, "closed loop", R);
      checkPhase(B, "traced closed loop", R);
      R.ops(A.T.Ops + B.T.Ops, A.T.Failed + B.T.Failed);
      Untraced += static_cast<double>(A.T.Ops) / A.Seconds / 2;
      Traced += static_cast<double>(B.T.Ops) / B.Seconds / 2;
    }
  }
  DrainReport Rep = S->close();
  checkDrain(Rep, Next, R);
  checkPhase(Net, "traced open loop", R);
  if (Net.T.Digest != PoolTally.Digest)
    R.fail("wire: traced wire digest differs from the in-process pool");
  if (VmTally.Failed || PoolTally.Failed)
    R.fail("wire: runRequest or pool replay has failed outcomes");
  R.ops(Net.T.Ops + VmTally.Ops + PoolTally.Ops,
        Net.T.Failed + VmTally.Failed + PoolTally.Failed);

  // Frame codec cost over the same stream, encode and decode separately.
  std::vector<WireRequest> Reqs;
  std::vector<WireResponse> Resps;
  for (uint64_t I = 0; I != N; ++I) {
    Reqs.push_back(S->request(I));
    WireResponse W;
    W.Index = I;
    W.Status = isAttack(I) ? WireStatus::Trapped : WireStatus::Ok;
    W.ReturnValue = isAttack(I) ? 0 : BenignReturn;
    Resps.push_back(W);
  }
  std::vector<double> EncodeNs, DecodeNs;
  for (unsigned Rep = 0; Rep != 5; ++Rep) {
    std::vector<uint8_t> ReqBytes, RespBytes;
    uint64_t A = nowNs();
    for (uint64_t I = 0; I != N; ++I) {
      std::vector<uint8_t> F = encodeRequestFrame(Reqs[I]);
      std::vector<uint8_t> G = encodeResponseFrame(Resps[I]);
      ReqBytes.insert(ReqBytes.end(), F.begin(), F.end());
      RespBytes.insert(RespBytes.end(), G.begin(), G.end());
    }
    uint64_t B = nowNs();
    uint64_t Decoded = 0;
    for (std::vector<uint8_t> *Bytes : {&ReqBytes, &RespBytes}) {
      FrameDecoder Dec;
      std::vector<uint8_t> Payload;
      FrameError Err = FrameError::None;
      for (size_t Off = 0; Off < Bytes->size(); Off += 65536) {
        Dec.feed(Bytes->data() + Off, std::min<size_t>(65536, Bytes->size() - Off));
        while (Dec.next(Payload, Err) == FrameDecoder::Item::Payload) {
          WireRequest Rq;
          WireResponse Rs;
          bool Ok = Bytes == &ReqBytes
                        ? parseRequestPayload(Payload.data(), Payload.size(), Rq)
                        : parseResponsePayload(Payload.data(), Payload.size(), Rs);
          Decoded += Ok;
        }
      }
    }
    uint64_t C = nowNs();
    if (Decoded != 2 * N)
      R.fail("wire: frame codec round trip lost frames");
    EncodeNs.push_back(static_cast<double>(B - A) / static_cast<double>(N));
    DecodeNs.push_back(static_cast<double>(C - B) / static_cast<double>(N));
    uint32_t Op = Spans.record("net.codec", Rep, 0, A, C);
    Spans.record("net.encode", Rep, Op, A, B);
    Spans.record("net.decode", Rep, Op, B, C);
  }

  const double ToOutcomeP50 = quantile(ToOutcomeUs, 0.5);
  R.add("net.encode_ns", median(EncodeNs), "ns");
  R.add("net.decode_ns", median(DecodeNs), "ns");
  R.add("net.self_us", quantile(Net.RttUs, 0.5) - ToOutcomeP50, "us");
  R.add("net.bytes_per_req",
        static_cast<double>(Rep.Net.BytesIn + Rep.Net.BytesOut) /
            static_cast<double>(Next),
        "bytes");
  R.add("runtime.submit_ns", median(SubmitNs), "ns");
  R.add("runtime.submit_to_outcome_us.p50", ToOutcomeP50, "us");
  R.add("runtime.submit_to_outcome_us.p99", quantile(ToOutcomeUs, 0.99), "us");
  R.add("runtime.rng_reseed_us", median(ReseedUs), "us");
  R.add("runtime.shed", static_cast<double>(Books.Shed), "count");
  R.add("runtime.poisoned", static_cast<double>(Books.Poisoned), "count");
  R.add("vm.run_request_us.benign", median(BenignUs), "us");
  R.add("vm.run_request_us.attack", median(AttackUs), "us");
  R.add("bench.generator_lag_p99_us", quantile(Net.LagUs, 0.99), "us");
  if (Home) {
    R.add("bench.trace_overhead_pct", overheadPct(Untraced, Traced), "%");
    R.add("bench.latency_p50_us", quantile(Net.LatencyUs, 0.5), "us");
    R.add("bench.latency_p99_us", quantile(Net.LatencyUs, 0.99), "us");
  }
}

} // namespace perfbench

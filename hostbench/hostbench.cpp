//===- hostbench/hostbench.cpp - One mode of the host-clock benchmark -----===//
//
// Part of the SuperPin reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload in one mode and prints one JSON object on
// stdout. run.py starts a fresh process per mode, so every timed call pays
// what a command-line user pays on every run: a cold process, first-touch
// page faults, and its own peak memory.
//
//   hostbench -mode spmp -workload mcf-icount [-seed N] [-scale S]
//
// Modes:
//   ref           untimed references computed apart from the engine (a
//                 block-stepping interpretation of the guest, the serial-Pin
//                 fini of the replay tool) plus the capture log replay reads
//   native, pin, superpin, spmp, replay
//                 one timed call each
//   trace-spmp    the -spmp run with HostTraceRecorder and ProfileCollector
//                 attached through SpOptions
//   trace-layers  timed calls into every other layer plus outside-in probes
//
// Trace modes also record a span around each call into a layer and print
// the spans with the result; the timed modes record none.
//
//===----------------------------------------------------------------------===//

#include "analysis/Passes.h"
#include "host/ChargeStream.h"
#include "host/WorkerPool.h"
#include "obs/HostTraceRecorder.h"
#include "os/Kernel.h"
#include "os/Process.h"
#include "pin/Runner.h"
#include "prof/Profile.h"
#include "replay/CaptureWriter.h"
#include "replay/Log.h"
#include "replay/ReplayEngine.h"
#include "superpin/Engine.h"
#include "support/CommandLine.h"
#include "support/Json.h"
#include "support/RawOstream.h"
#include "support/Random.h"
#include "support/StringExtras.h"
#include "tools/DCache.h"
#include "tools/Icount.h"
#include "tools/OpcodeMix.h"
#include "vm/Interpreter.h"
#include "workloads/Spec2000.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace spin;

namespace {

/// Host worker threads for -spmp and replay: with the simulation (or
/// calling) thread this is 4 threads, the core count of the machine the
/// reference figures come from.
constexpr unsigned HostWorkers = 3;

/// The paper-facing slice length (superpin_run's default).
constexpr uint64_t SliceMs = 100;

/// The tool captured logs are replayed under, and whose serial-Pin fini
/// output the replay must reproduce.
constexpr const char *ReplayTool = "opcodemix";

struct BenchWorkload {
  const char *Name;
  const char *Suite; ///< spec2000Suite() entry the program is built from
  const char *Tool;
};

constexpr BenchWorkload Workloads[] = {
    {"mcf-icount", "mcf", "icount2"},
    {"gcc-icount", "gcc", "icount2"},
    {"swim-dcache", "swim", "dcache"},
};

[[noreturn]] void die(const std::string &Msg) {
  errs() << "hostbench: " << Msg << "\n";
  errs().flush();
  std::exit(1);
}

uint64_t nowNs() { return host::monotonicNowNs(); }

uint64_t fnv1a(std::string_view Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

uint64_t medianOf(std::vector<uint64_t> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span list of one process; printed with the result. Parents
/// are the innermost span open when a span starts.
class SpanLog {
public:
  size_t open(const char *Name) {
    int Parent = Stack.empty() ? -1 : static_cast<int>(Stack.back());
    Spans.push_back({Name, Parent, nowNs(), 0});
    Stack.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }
  void close(size_t Idx) {
    Spans[Idx].EndNs = nowNs();
    Stack.pop_back();
  }
  void write(JsonWriter &J) const {
    J.key("spans").beginArray();
    for (const Span &S : Spans) {
      J.beginObject();
      J.field("name", S.Name).field("parent", int64_t(S.Parent));
      J.field("begin_ns", S.BeginNs).field("end_ns", S.EndNs);
      J.endObject();
    }
    J.endArray();
  }

private:
  struct Span {
    const char *Name;
    int Parent;
    uint64_t BeginNs, EndNs;
  };
  std::vector<Span> Spans;
  std::vector<size_t> Stack;
};

SpanLog *Spans = nullptr; ///< non-null in the trace modes only

/// Times \p F on the host clock, recording a span named \p Name when the
/// process traces. Returns nanoseconds.
template <typename Fn> uint64_t timed(const char *Name, Fn &&F) {
  size_t Idx = Spans ? Spans->open(Name) : 0;
  uint64_t T0 = nowNs();
  F();
  uint64_t Ns = nowNs() - T0;
  if (Spans)
    Spans->close(Idx);
  return Ns;
}

//===----------------------------------------------------------------------===//
// Set-up and tools
//===----------------------------------------------------------------------===//

struct Setup {
  const BenchWorkload *W = nullptr;
  workloads::WorkloadInfo Info;
  vm::Program Prog;
  os::CostModel Model;
  os::Ticks InstCost = 0;
  uint64_t GenerateNs = 0;
  uint64_t AnalysisNs = 0;
};

/// Generates and assembles the workload's program from its suite entry
/// (with \p Seed replacing the suite's own seed when given), then builds
/// the static CFG and syscall-site map the engine consults.
void setUp(Setup &S, const std::string &Name, const std::string &Seed,
           double Scale) {
  for (const BenchWorkload &W : Workloads)
    if (Name == W.Name)
      S.W = &W;
  if (!S.W)
    die("unknown workload '" + Name + "'");
  S.Info = workloads::findWorkload(S.W->Suite);
  if (!Seed.empty()) {
    std::optional<uint64_t> N = parseUint(Seed);
    if (!N)
      die("bad -seed '" + Seed + "'");
    S.Info.Params.Seed = *N;
  }
  S.GenerateNs = timed("workloads.generate", [&] {
    S.Prog = workloads::buildWorkload(S.Info, Scale);
  });
  S.AnalysisNs =
      timed("analysis.cfg", [&] { analysis::analyzeProgram(S.Prog); });
  S.InstCost = static_cast<os::Ticks>(
      std::llround(S.Info.Cpi * double(S.Model.TicksPerInst)));
}

/// A tool factory plus the result object its instances fill at fini.
struct BenchTool {
  pin::ToolFactory Factory;
  std::shared_ptr<tools::IcountResult> Icount;
  std::shared_ptr<tools::DCacheResult> DCache;
};

BenchTool makeTool(const std::string &Name) {
  BenchTool T;
  if (Name == "icount2") {
    T.Icount = std::make_shared<tools::IcountResult>();
    T.Factory =
        tools::makeIcountTool(tools::IcountGranularity::BasicBlock, T.Icount);
  } else if (Name == "dcache") {
    T.DCache = std::make_shared<tools::DCacheResult>();
    T.Factory = tools::makeDCacheTool(tools::DCacheConfig(), T.DCache);
  } else if (Name == "opcodemix") {
    T.Factory = tools::makeOpcodeMixTool();
  } else {
    die("unknown tool '" + Name + "'");
  }
  return T;
}

void writeTool(JsonWriter &J, const BenchTool &T) {
  if (T.Icount)
    J.field("icount", T.Icount->Total);
  if (T.DCache) {
    J.field("dcache_accesses", T.DCache->Accesses);
    J.field("dcache_hits", T.DCache->Hits);
    J.field("dcache_misses", T.DCache->Misses);
  }
}

sp::SpOptions superPinOptions(const Setup &S, unsigned Workers) {
  sp::SpOptions Opts;
  Opts.SliceMs = SliceMs;
  Opts.Cpi = S.Info.Cpi;
  Opts.HostWorkers = Workers;
  if (std::string Bad = Opts.validate(); !Bad.empty())
    die(Bad);
  return Opts;
}

//===----------------------------------------------------------------------===//
// Ground truth: block-stepping interpretation, apart from every engine
//===----------------------------------------------------------------------===//

/// The instructions the dcache tool should see as memory accesses: loads,
/// stores, the read-modify-write incm, and the stack operations of push,
/// pop, call and ret. Listed by opcode rather than read from the opcode
/// flags the tool uses, so a wrong flag shows up as a mismatch.
bool touchesMemory(vm::Opcode Op) {
  using vm::Opcode;
  switch (Op) {
  case Opcode::Ld8u:
  case Opcode::Ld16u:
  case Opcode::Ld32u:
  case Opcode::Ld64:
  case Opcode::St8:
  case Opcode::St16:
  case Opcode::St32:
  case Opcode::St64:
  case Opcode::Incm:
  case Opcode::Push:
  case Opcode::Pop:
  case Opcode::Call:
  case Opcode::Callr:
  case Opcode::Ret:
    return true;
  default:
    return false;
  }
}

struct GroundTruth {
  uint64_t Insts = 0;
  uint64_t MemInsts = 0;
  std::string Output;
};

/// Steps \p Proc one dynamic basic block at a time until it exits or has
/// retired \p StopAt instructions. A block retires straight-line text up
/// to its control-flow instruction, so its memory-touching instructions
/// are a prefix-sum difference over the text segment.
class BlockStepper {
public:
  explicit BlockStepper(const vm::Program &Prog)
      : Prog(Prog), Proc(os::Process::create(Prog)),
        Interp(Prog, Proc.Cpu, Proc.Mem), MemPrefix(Prog.Text.size() + 1) {
    for (size_t I = 0; I != Prog.Text.size(); ++I)
      MemPrefix[I + 1] = MemPrefix[I] + touchesMemory(Prog.Text[I].Op);
  }
  // Interp holds references into Proc.
  BlockStepper(const BlockStepper &) = delete;
  BlockStepper &operator=(const BlockStepper &) = delete;

  void runTo(uint64_t StopAt) {
    while (Proc.Status == os::ProcStatus::Running &&
           Interp.instructionsRetired() < StopAt) {
      if (!Prog.fetch(Proc.Cpu.Pc))
        die("ground truth: pc left the text segment");
      uint64_t Start = vm::Program::indexOfAddress(Proc.Cpu.Pc);
      vm::RunResult R =
          Interp.runToBlockEnd(StopAt - Interp.instructionsRetired());
      uint64_t End = std::min<uint64_t>(Start + R.InstsExecuted,
                                        Prog.Text.size());
      GT.MemInsts += MemPrefix[End] - MemPrefix[Start];
      Proc.noteRetired(R.InstsExecuted);
      if (R.Reason == vm::StopReason::Syscall) {
        os::SystemContext Ctx;
        Ctx.NowMs = Interp.instructionsRetired() / 1000;
        Ctx.OutputBuf = &GT.Output;
        os::serviceSyscall(Proc, Ctx, nullptr);
        Interp.noteSyscallRetired();
        Proc.noteRetired(1);
      } else if (R.Reason == vm::StopReason::Halt ||
                 R.Reason == vm::StopReason::BadPc) {
        die("ground truth: guest stopped abnormally");
      }
    }
    GT.Insts = Interp.instructionsRetired();
  }

  const vm::Program &Prog;
  os::Process Proc;
  vm::Interpreter Interp;
  std::vector<uint64_t> MemPrefix;
  GroundTruth GT;
};

//===----------------------------------------------------------------------===//
// Outside-in probes
//===----------------------------------------------------------------------===//

struct VmProbe {
  uint64_t Pages = 0;
  uint64_t ForkNs = 0;
  double Read64Ns = 0;
  double CowWrite64Ns = 0;
};

/// Stops the workload's own process halfway through its instruction
/// stream and times GuestMemory and Process::fork on it.
VmProbe probeVm(const vm::Program &Prog, uint64_t TotalInsts) {
  BlockStepper Mid(Prog);
  timed("vm.run_to_midpoint", [&] { Mid.runTo(TotalInsts / 2); });
  os::Process &Proc = Mid.Proc;
  VmProbe P;
  P.Pages = Proc.Mem.numPages();

  // Every mapped page in the regions the generator and kernel use.
  std::vector<uint64_t> PageAddrs;
  auto Scan = [&](uint64_t Lo, uint64_t Hi) {
    for (uint64_t A = Lo & ~(vm::PageSize - 1); A < Hi; A += vm::PageSize)
      if (Proc.Mem.isMapped(A))
        PageAddrs.push_back(A);
  };
  using Layout = vm::AddressLayout;
  Scan(Layout::DataBase, Layout::DataBase + Prog.DataInit.size());
  Scan(Layout::HeapBase, Proc.Kern.Brk);
  Scan(Layout::StackTop - Layout::StackSize, Layout::StackTop);
  if (PageAddrs.empty())
    die("vm probe: no mapped pages");

  std::vector<uint64_t> ForkNs;
  timed("vm.fork", [&] {
    for (uint64_t I = 0; I != 21; ++I) {
      uint64_t T0 = nowNs();
      os::Process Child = Proc.fork(100 + I);
      ForkNs.push_back(nowNs() - T0);
    }
  });
  P.ForkNs = medianOf(ForkNs);

  constexpr size_t Reads = size_t(1) << 20;
  std::vector<uint64_t> Addrs(Reads);
  SplitMix64 Rng(0x7ead);
  for (uint64_t &A : Addrs)
    A = PageAddrs[Rng.nextBelow(PageAddrs.size())] +
        8 * Rng.nextBelow(vm::PageSize / 8);
  uint64_t Sum = 0;
  uint64_t ReadNs = timed("vm.read64", [&] {
    for (uint64_t A : Addrs)
      Sum += Proc.Mem.read64(A);
  });
  P.Read64Ns = double(ReadNs) / double(Reads);

  std::vector<uint64_t> CowNs;
  timed("vm.cow_write64", [&] {
    for (uint64_t I = 0; I != 5; ++I) {
      os::Process Child = Proc.fork(200 + I);
      uint64_t T0 = nowNs();
      for (uint64_t A : PageAddrs)
        Child.Mem.write64(A, Sum + I);
      CowNs.push_back(nowNs() - T0);
    }
  });
  P.CowWrite64Ns = double(medianOf(CowNs)) / double(PageAddrs.size());
  return P;
}

/// Per-event cost of ChargeStream push on one thread and StreamReplayer
/// replay on another, the transport every -spmp slice body uses.
double probeStream() {
  constexpr uint64_t Events = uint64_t(1) << 20;
  std::vector<uint64_t> Ns;
  timed("host.stream", [&] {
    for (int Rep = 0; Rep != 5; ++Rep) {
      host::ChargeStream Stream;
      os::TickLedger Ledger;
      Ledger.beginStep(~os::Ticks(0) >> 2);
      uint64_t T0 = nowNs();
      std::thread Producer([&Stream] {
        for (uint64_t I = 0; I != Events; ++I) {
          host::ChargeEvent E;
          E.Sum = 1 + (I & 7);
          E.Count = 1;
          Stream.push(E);
        }
        host::ChargeEvent Done;
        Done.EventKind = host::ChargeEvent::Kind::Done;
        Stream.push(Done);
      });
      host::StreamReplayer Replayer(Stream);
      host::StreamReplayer::Step St = Replayer.replay(Ledger);
      Producer.join();
      Ns.push_back(nowNs() - T0);
      // Sum over I of 1 + (I & 7): each run of 8 events charges 36.
      if (St != host::StreamReplayer::Step::Done ||
          Ledger.totalCharged() != Events / 8 * 36)
        die("stream probe: replay lost events");
    }
  });
  return double(medianOf(Ns)) / double(Events);
}

/// Median submit-to-start latency of one job on an idle WorkerPool.
double probePool() {
  constexpr unsigned Jobs = 200;
  std::vector<std::atomic<uint64_t>> Start(Jobs);
  std::vector<uint64_t> Lat;
  timed("host.pool_submit", [&] {
    host::WorkerPool Pool(HostWorkers);
    for (unsigned I = 0; I != Jobs; ++I) {
      std::atomic<uint64_t> &Slot = Start[I];
      uint64_t T0 = nowNs();
      Pool.submit([&Slot](host::WorkerContext &) {
        Slot.store(nowNs(), std::memory_order_release);
      });
      uint64_t S;
      while ((S = Slot.load(std::memory_order_acquire)) == 0)
        std::this_thread::yield();
      Lat.push_back(S - T0);
    }
  });
  return double(medianOf(Lat)) / 1000.0;
}

//===----------------------------------------------------------------------===//
// Result writers
//===----------------------------------------------------------------------===//

void writeRusage(JsonWriter &J) {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  J.field("maxrss_kb", uint64_t(U.ru_maxrss));
  J.field("minflt", uint64_t(U.ru_minflt));
}

void writeGuest(JsonWriter &J, uint64_t Insts, int ExitCode,
                const std::string &Output) {
  J.field("insts", Insts).field("exit_code", ExitCode);
  J.field("output_hash", fnv1a(Output));
  J.field("output_bytes", uint64_t(Output.size()));
}

void writeNative(JsonWriter &J, const pin::RunReport &R, uint64_t Ns) {
  J.field("time_ns", Ns);
  writeGuest(J, R.Insts, R.ExitCode, R.Output);
}

void writePin(JsonWriter &J, const Setup &S, const pin::RunReport &R,
              const BenchTool &T, uint64_t Ns) {
  J.field("time_ns", Ns);
  writeGuest(J, R.Insts, R.ExitCode, R.Output);
  writeTool(J, T);
  J.field("virtual_s", S.Model.ticksToSeconds(R.WallTicks));
  J.field("analysis_calls", R.AnalysisCalls);
  J.field("traces_compiled", R.TracesCompiled);
}

void writeSuperPin(JsonWriter &J, const Setup &S, const sp::SpRunReport &R,
                   const BenchTool &T, uint64_t Ns) {
  J.field("time_ns", Ns);
  writeGuest(J, R.MasterInsts, R.ExitCode, R.Output);
  writeTool(J, T);
  J.field("partition_ok", R.PartitionOk);
  J.field("coverage_insts", R.CoverageInsts);
  J.field("virtual_s", S.Model.ticksToSeconds(R.WallTicks));
  J.key("ticks").beginArray();
  for (os::Ticks Tk : {R.WallTicks, R.MasterExitTicks, R.NativeTicks,
                       R.ForkOthersTicks, R.SleepTicks, R.PipelineTicks})
    J.value(uint64_t(Tk));
  J.endArray();
  J.field("slices", R.NumSlices);
  J.field("sig_quick_checks", R.Signature.QuickChecks);
  J.field("sig_full_checks", R.Signature.FullChecks);
  J.field("cow_copies_master", R.MasterCowCopies);
  J.field("cow_copies_slice", R.SliceCowCopies);
  J.field("traces_compiled", R.TracesCompiled);
  J.field("syscalls", R.MasterSyscalls);
  J.field("syscalls_played_back", R.PlaybackSyscalls);
  J.field("stream_events", R.HostStreamEvents);
  J.field("stream_arena_bytes", R.HostArenaBytes);
}

void writeReplay(JsonWriter &J, const replay::ReplayReport &R,
                 uint64_t CaptureSlices, uint64_t DecodeNs,
                 uint64_t ReplayAllNs, uint64_t Ns) {
  J.field("time_ns", Ns).field("decode_ns", DecodeNs);
  J.field("replay_all_ns", ReplayAllNs);
  J.field("capture_slices", CaptureSlices);
  J.field("slices_replayed", R.SlicesReplayed);
  J.field("parity_ok", R.ParityOk).field("parity_failed", R.ParityFailed);
  J.field("fini_hash", fnv1a(R.FiniOutput));
}

//===----------------------------------------------------------------------===//
// Modes
//===----------------------------------------------------------------------===//

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot read '" + Path + "'");
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In), {});
}

/// Runs SuperPin under the workload's tool and returns the capture log.
std::vector<uint8_t> capture(const Setup &S, uint64_t *CaptureNs,
                             uint64_t *EncodeNs) {
  replay::CaptureWriter Writer;
  sp::SpOptions Opts = superPinOptions(S, 0);
  Opts.Capture = &Writer;
  BenchTool T = makeTool(S.W->Tool);
  sp::SpRunReport R;
  *CaptureNs = timed("replay.capture", [&] {
    R = sp::runSuperPin(S.Prog, T.Factory, Opts, S.Model);
  });
  if (!R.PartitionOk)
    die("capture run broke the slice partition");
  std::vector<uint8_t> Log;
  *EncodeNs =
      timed("replay.encode", [&] { Log = replay::encodeCapture(Writer.capture()); });
  return Log;
}

/// Decodes \p Log and replays every slice under opcodemix on the host pool.
void decodeAndReplay(JsonWriter &J, const Setup &S,
                     const std::vector<uint8_t> &Log) {
  std::optional<replay::RunCapture> Cap;
  replay::ReplayReport Rep;
  uint64_t DecodeNs = 0, ReplayAllNs = 0;
  uint64_t Ns = timed("replay.decode_and_replay", [&] {
    std::string Err;
    DecodeNs = timed("replay.decode",
                     [&] { Cap = replay::decodeCapture(Log, &Err); });
    if (!Cap)
      die("capture log does not decode: " + Err);
    replay::ReplayEngine Engine(*Cap, S.Model);
    Engine.setHostWorkers(HostWorkers);
    BenchTool T = makeTool(ReplayTool);
    ReplayAllNs = timed("replay.replay_all",
                        [&] { Rep = Engine.replayAll(T.Factory); });
  });
  writeReplay(J, Rep, Cap->Slices.size(), DecodeNs, ReplayAllNs, Ns);
}

void modeRef(JsonWriter &J, const Setup &S, const std::string &LogPath) {
  BlockStepper Truth(S.Prog);
  Truth.runTo(~uint64_t(0));
  if (Truth.Proc.Status != os::ProcStatus::Exited)
    die("ground truth: guest did not exit");
  writeGuest(J, Truth.GT.Insts, Truth.Proc.ExitCode, Truth.GT.Output);
  J.field("mem_insts", Truth.GT.MemInsts);

  BenchTool T = makeTool(ReplayTool);
  pin::RunReport R = pin::runSerialPin(S.Prog, S.Model, S.InstCost, T.Factory);
  J.field("replay_tool_fini_hash", fnv1a(R.FiniOutput));

  uint64_t CaptureNs = 0, EncodeNs = 0;
  std::vector<uint8_t> Log = capture(S, &CaptureNs, &EncodeNs);
  std::FILE *F = std::fopen(LogPath.c_str(), "wb");
  if (!F || std::fwrite(Log.data(), 1, Log.size(), F) != Log.size() ||
      std::fclose(F) != 0)
    die("cannot write '" + LogPath + "'");
  J.field("log_bytes", uint64_t(Log.size()));
}

/// Returns the retired-instruction count.
uint64_t modeNative(JsonWriter &J, const Setup &S) {
  pin::RunReport R;
  uint64_t Ns = timed("vm.interp", [&] {
    R = pin::runNative(S.Prog, S.Model, S.InstCost);
  });
  writeNative(J, R, Ns);
  return R.Insts;
}

void modePin(JsonWriter &J, const Setup &S) {
  BenchTool T = makeTool(S.W->Tool);
  pin::RunReport R;
  uint64_t Ns = timed("pin.serial", [&] {
    R = pin::runSerialPin(S.Prog, S.Model, S.InstCost, T.Factory);
  });
  writePin(J, S, R, T, Ns);
}

void modeSuperPin(JsonWriter &J, const Setup &S, unsigned Workers) {
  BenchTool T = makeTool(S.W->Tool);
  sp::SpOptions Opts = superPinOptions(S, Workers);
  sp::SpRunReport R;
  uint64_t Ns = timed("superpin.run", [&] {
    R = sp::runSuperPin(S.Prog, T.Factory, Opts, S.Model);
  });
  writeSuperPin(J, S, R, T, Ns);
}

void modeTraceSpmp(JsonWriter &J, const Setup &S) {
  BenchTool T = makeTool(S.W->Tool);
  sp::SpOptions Opts = superPinOptions(S, HostWorkers);
  obs::HostTraceRecorder HostTrace;
  prof::ProfileCollector Profile;
  Opts.HostTrace = &HostTrace;
  Opts.Profile = &Profile;
  sp::SpRunReport R;
  uint64_t Ns = timed("superpin.run", [&] {
    R = sp::runSuperPin(S.Prog, T.Factory, Opts, S.Model);
  });
  writeSuperPin(J, S, R, T, Ns);

  auto Vt = [&](os::Ticks Tk) { return S.Model.ticksToSeconds(Tk); };
  J.key("layers").beginObject();
  using prof::Cause;
  const std::pair<const char *, Cause> Causes[] = {
      {"jit_compile", Cause::JitCompile},   {"jit_execute", Cause::JitExecute},
      {"instr_analysis", Cause::InstrAnalysis},
      {"sig_search", Cause::SigSearch},     {"sys_playback", Cause::SysPlayback},
      {"fork", Cause::Fork},                {"merge", Cause::Merge},
      {"retry_waste", Cause::RetryWaste}};
  for (const auto &[Name, C] : Causes)
    J.field(std::string("superpin.vt.") + Name + "_s",
            Vt(Profile.totalCause(C)));
  J.field("superpin.vt.native_s", Vt(R.NativeTicks));
  J.field("superpin.vt.fork_others_s", Vt(R.ForkOthersTicks));
  J.field("superpin.vt.sleep_s", Vt(R.SleepTicks));
  J.field("superpin.vt.pipeline_s", Vt(R.PipelineTicks));
  using obs::HostSpanKind;
  const std::pair<const char *, HostSpanKind> Lanes[] = {
      {"body", HostSpanKind::Body},
      {"dispatch_wait", HostSpanKind::DispatchWait},
      {"merge_wait", HostSpanKind::MergeWait},
      {"idle", HostSpanKind::Idle},
      {"retire", HostSpanKind::Retire}};
  for (const auto &[Name, K] : Lanes)
    J.field(std::string("host.") + Name + "_s",
            double(R.HostAttr.totalNs(K)) * 1e-9);
  J.endObject();
}

void modeTraceLayers(JsonWriter &J, const Setup &S) {
  J.key("native").beginObject();
  uint64_t Insts = modeNative(J, S);
  J.endObject();
  J.key("pin").beginObject();
  modePin(J, S);
  J.endObject();

  VmProbe Vm = probeVm(S.Prog, Insts);
  double StreamNs = probeStream();
  double SubmitUs = probePool();
  uint64_t CaptureNs = 0, EncodeNs = 0;
  std::vector<uint8_t> Log = capture(S, &CaptureNs, &EncodeNs);
  J.key("replay").beginObject();
  decodeAndReplay(J, S, Log);
  J.endObject();

  J.key("probes").beginObject();
  J.field("vm.pages", Vm.Pages);
  J.field("vm.fork_us", double(Vm.ForkNs) / 1000.0);
  J.field("vm.read64_ns", Vm.Read64Ns);
  J.field("vm.cow_write64_ns", Vm.CowWrite64Ns);
  J.field("host.stream_ns_per_event", StreamNs);
  J.field("host.submit_us", SubmitUs);
  J.field("replay.capture_s", double(CaptureNs) * 1e-9);
  J.field("replay.encode_s", double(EncodeNs) * 1e-9);
  J.field("replay.log_mb", double(Log.size()) / (1024.0 * 1024.0));
  J.endObject();
}

} // namespace

int main(int Argc, char **Argv) {
  OptionRegistry Registry;
  Opt<std::string> Mode(Registry, "mode", "",
                        "ref, native, pin, superpin, spmp, replay, "
                        "trace-spmp or trace-layers");
  Opt<std::string> Workload(Registry, "workload", "", "benchmark workload");
  Opt<std::string> Seed(Registry, "seed", "",
                        "program seed (empty = the suite entry's own)");
  Opt<double> Scale(Registry, "scale", 1.0, "workload duration scale");
  Opt<std::string> LogPath(Registry, "log", "",
                           "capture log (written by ref, read by replay)");
  std::string Err;
  if (!Registry.parse(Argc, Argv, Err))
    die(Err);
  const std::string &M = Mode.value();
  bool Trace = M == "trace-spmp" || M == "trace-layers";
  SpanLog Log;
  if (Trace)
    Spans = &Log;

  Setup S;
  setUp(S, Workload, Seed, Scale);

  JsonWriter J(outs());
  J.beginObject();
  J.field("mode", M);
  J.field("generate_ns", S.GenerateNs).field("analysis_ns", S.AnalysisNs);
  if (M == "ref") {
    if (LogPath.value().empty())
      die("ref needs -log");
    modeRef(J, S, LogPath);
  } else if (M == "native") {
    modeNative(J, S);
  } else if (M == "pin") {
    modePin(J, S);
  } else if (M == "superpin") {
    modeSuperPin(J, S, 0);
  } else if (M == "spmp") {
    modeSuperPin(J, S, HostWorkers);
  } else if (M == "replay") {
    if (LogPath.value().empty())
      die("replay needs -log");
    decodeAndReplay(J, S, readFile(LogPath));
  } else if (M == "trace-spmp") {
    modeTraceSpmp(J, S);
  } else if (M == "trace-layers") {
    modeTraceLayers(J, S);
  } else {
    die("unknown -mode '" + M + "'");
  }
  writeRusage(J);
  if (Trace)
    Log.write(J);
  J.endObject();
  outs() << "\n";
  outs().flush();
  return 0;
}

// serve_mix: a closed loop of a few clients against `dft_tool serve
// --socket`. Each client sends its next request only after the previous
// answer arrived, in whole rounds of a fixed request mix: built-in circuits
// (cache hits) plus fresh inline .bench circuits (cache misses).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <thread>

#include "atpg/engine.h"
#include "checks.h"
#include "circuits/random_circuit.h"
#include "fault/threaded_fault_sim.h"
#include "lint/engine.h"
#include "measure/scoap.h"
#include "netlist/bench_io.h"
#include "netlist/compiled.h"
#include "obs/json.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "sta/sta.h"
#include "workloads.h"

namespace bench {

using namespace dft;

namespace {

// As many clients as daemon workers, at most nproc connections: every
// request finds a free worker, so a latency is one job's service time plus
// transport, not a place in a queue; two of the reference host's 4 cores
// stay free for the clients and other load.
constexpr int kClients = 2;
constexpr int kWorkers = 2;
// At least kClients: a closed loop never has more requests in flight than
// clients, so nothing is shed.
constexpr int kMaxInflight = 8;
// Distinct inline circuits of each pool, cycled through; twice the
// daemon's default cache capacity of 8, so every inline request misses.
constexpr int kInlineCircuits = 16;
// Gates of the small inline circuits (atpg and fault_sim jobs, replayed
// on the serial engine) and of the large ones (measure jobs, whose time is
// the parse and collapse of a cache miss).
constexpr int kSmallGates = 200;
constexpr int kLargeGates = 2000;
constexpr int kPatterns = 256;
constexpr int kInlinePatterns = 64;
constexpr int kInlineBacktrackLimit = 10;
// Options seed of every request: built-in jobs answer the same in every
// run; --seed picks the inline circuits and the clients' orders.
constexpr std::uint64_t kRequestSeed = 1;

enum class Pool { None, Small, Large };

struct Request {
  std::string op;
  std::string circuit;  // built-in name, or "" for inline
  Pool pool = Pool::None;
  std::string options;  // JSON object body without braces
};

struct Answer {
  const Request* req = nullptr;
  std::string id;
  int inline_index = -1;
  double latency_ms = 0;
  std::string line;
};

// One round of the mix: 13 requests, so the median falls inside one kind.
// Six are faster than a measure job on a large inline circuit (a cache
// miss: parse, collapse, eviction), six are slower.
std::vector<Request> round_template() {
  const std::string s = "\"seed\":" + std::to_string(kRequestSeed);
  const std::string pat = "\"patterns\":" + std::to_string(kPatterns);
  const std::string inline_atpg = "\"include_tests\":true,\"backtrack_limit\":" +
                                  std::to_string(kInlineBacktrackLimit) + "," + s;
  return {
      {"measure", "sn74181", Pool::None, ""},
      {"lint", "sn74181", Pool::None, ""},
      {"sta", "sn74181", Pool::None, ""},
      {"fault_sim", "sn74181", Pool::None, pat + "," + s},
      {"atpg", "sn74181", Pool::None, "\"include_tests\":true," + s},
      {"fault_sim", "", Pool::Small,
       "\"patterns\":" + std::to_string(kInlinePatterns) + "," + s},
      {"measure", "", Pool::Large, ""},
      {"atpg", "", Pool::Small, inline_atpg},
      {"atpg", "", Pool::Small, inline_atpg},
      {"fault_sim", "rand2k", Pool::None, pat + "," + s},
      {"bist", "rand2k", Pool::None, pat + "," + s},
      {"lint", "rand2k", Pool::None, ""},
      {"sta", "rand2k", Pool::None, ""},
  };
}

std::string request_line(const std::string& id, const Request& r,
                         const std::string* bench) {
  std::string line = "{\"schema\":\"dft-serve-request\",\"version\":1,\"id\":";
  serve::append_json_string(id, line);
  line += ",\"op\":\"" + r.op + "\",";
  if (bench != nullptr) {
    line += "\"bench\":";
    serve::append_json_string(*bench, line);
  } else {
    line += "\"circuit\":\"" + r.circuit + "\"";
  }
  if (!r.options.empty()) line += ",\"options\":{" + r.options + "}";
  line += "}";
  return line;
}

class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof addr.sun_path) return;
    std::copy(path.begin(), path.end(), addr.sun_path);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close(fd_);
      fd_ = -1;
      return;
    }
    // A daemon that stops answering ends the run instead of hanging it.
    const timeval timeout{60, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  // Sends one line and returns the one response line ("" when the
  // connection failed).
  std::string call(const std::string& line) {
    std::string msg = line + "\n";
    std::size_t sent = 0;
    while (sent < msg.size()) {
      const ssize_t n = send(fd_, msg.data() + sent, msg.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) return {};
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return out;
      }
      char chunk[65536];
      const ssize_t n = recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// Removes the daemon's socket file however the run ends.
struct SocketFile {
  std::string path;
  ~SocketFile() { unlink(path.c_str()); }
};

struct Parsed {
  bool valid = false;
  obs::Json doc;
};

Parsed parse(const std::string& line) {
  Parsed p;
  try {
    p.doc = obs::parse_json(line);
    p.valid = p.doc.is_object();
  } catch (const std::exception&) {
  }
  return p;
}

long long int_of(const obs::Json* obj, const char* key) {
  const obs::Json* v = obj == nullptr ? nullptr : obj->find(key);
  return v != nullptr && v->is_number() ? static_cast<long long>(v->as_number())
                                        : -1;
}

std::string string_of(const obs::Json* obj, const char* key) {
  const obs::Json* v = obj == nullptr ? nullptr : obj->find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

// "rand2k", "small3", "large7": the circuit a request ran on.
std::string circuit_label(const Answer& a) {
  if (a.req->pool == Pool::None) return a.req->circuit;
  return (a.req->pool == Pool::Small ? "small" : "large") +
         std::to_string(a.inline_index);
}

}  // namespace

void run_serve_mix(const Args& args, Clock::time_point start, Outcome& out) {
  std::map<Pool, std::vector<std::string>> pools;
  for (int i = 0; i < kInlineCircuits; ++i) {
    RandomCircuitSpec spec;
    spec.max_fanin = 4;
    spec.seed = op_seed(args.seed, i);
    spec.num_inputs = 16;
    spec.num_outputs = 8;
    spec.num_gates = kSmallGates;
    pools[Pool::Small].push_back(write_bench_string(make_random_combinational(spec)));
    spec.num_inputs = 40;
    spec.num_outputs = 24;
    spec.num_gates = kLargeGates;
    pools[Pool::Large].push_back(write_bench_string(make_random_combinational(spec)));
  }
  const std::vector<Request> mix = round_template();

  const std::string sock = args.work_dir + "/serve-" +
                           std::to_string(getpid()) + ".sock";
  SocketFile sock_file{sock};
  unlink(sock.c_str());
  Child daemon({args.tool, "serve", "--socket", sock, "--workers",
                std::to_string(kWorkers), "--max-inflight",
                std::to_string(kMaxInflight)},
               false);
  for (int tries = 0;; ++tries) {
    if (g_interrupted.load()) return;
    if (Connection(sock).ok()) break;
    if (tries > 10000) throw std::runtime_error("serve daemon did not start");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Warm-up: the built-in circuits enter the cache.
  {
    Connection c(sock);
    for (const char* name : {"sn74181", "rand2k"}) {
      const std::string id = std::string("warm-") + name;
      const std::string line =
          c.call(request_line(id, Request{"measure", name, Pool::None, ""}, nullptr));
      out.expect(answered_ok(line, id), "warm-up request " + id +
                                            " not answered ok");
    }
  }
  out.set("setup_s", seconds_since(start), "s");

  // The timed closed loop.
  int clients = kClients;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && static_cast<int>(hw) < clients) clients = static_cast<int>(hw);
  std::vector<std::vector<Answer>> answers(static_cast<std::size_t>(clients));
  std::map<Pool, std::atomic<int>> inline_next;
  inline_next[Pool::Small] = 0;
  inline_next[Pool::Large] = 0;
  std::atomic<bool> lost{false};
  const auto loop_start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (int ci = 0; ci < clients; ++ci) {
      threads.emplace_back([&, ci] {
        Connection c(sock);
        std::mt19937_64 rng(op_seed(args.seed, 1000 + ci));
        std::vector<Answer>& mine = answers[static_cast<std::size_t>(ci)];
        for (int round = 0; seconds_since(loop_start) < args.seconds &&
                            !g_interrupted.load();
             ++round) {
          std::vector<const Request*> order;
          for (const Request& r : mix) order.push_back(&r);
          std::shuffle(order.begin(), order.end(), rng);
          for (std::size_t k = 0; k < order.size(); ++k) {
            const Request& r = *order[k];
            Answer a;
            a.req = &r;
            a.id = "c" + std::to_string(ci) + "-r" + std::to_string(round) +
                   "-" + std::to_string(k);
            const std::string* bench = nullptr;
            if (r.pool != Pool::None) {
              a.inline_index = inline_next.at(r.pool).fetch_add(1) % kInlineCircuits;
              bench = &pools.at(r.pool)[static_cast<std::size_t>(a.inline_index)];
            }
            const std::string line = request_line(a.id, r, bench);
            const auto t0 = Clock::now();
            a.line = c.ok() ? c.call(line) : std::string();
            a.latency_ms = 1000 * seconds_since(t0);
            if (a.line.empty()) lost.store(true);
            mine.push_back(std::move(a));
          }
        }
      });
    }
  }
  const double loop_s = seconds_since(loop_start);
  if (g_interrupted.load()) return;

  // Check-phase requests: an inline copy of a built-in answers exactly as
  // the built-in does.
  {
    const std::string copy = write_bench_string(serve::builtin_circuit("sn74181"));
    Connection c(sock);
    int k = 0;
    for (const Request& r : mix) {
      if (r.circuit != "sn74181") continue;
      const std::string a_id = "copy-b" + std::to_string(k);
      const std::string b_id = "copy-i" + std::to_string(k++);
      const std::string a = c.call(request_line(a_id, r, nullptr));
      const std::string b = c.call(request_line(b_id, r, &copy));
      out.expect(answered_ok(a, a_id) && answered_ok(b, b_id) &&
                     result_text(a) == result_text(b),
                 "inline copy of sn74181 answers " + r.op +
                     " differently from the built-in");
    }
  }

  daemon.stop(SIGTERM, 10000);
  out.set("peak_rss_mb", daemon.max_rss_mb, "MB");

  // Per-request outcomes.
  std::vector<double> latency, server_ms, overhead_ms;
  std::map<std::string, std::vector<double>> per_op;
  long long hits = 0, misses = 0;
  std::map<std::string, std::string> result_by_job;  // "op/circuit" -> result
  std::vector<std::string> transcript;
  std::vector<const Answer*> checked;
  for (const auto& mine : answers) {
    for (const Answer& a : mine) {
      ++out.attempted;
      if (!a.line.empty()) transcript.push_back(a.line);
      if (!answered_ok(a.line, a.id)) {
        ++out.failed;
        std::fprintf(stderr, "dftbench: request failed: %s\n",
                     a.line.empty() ? "(no answer)" : a.line.c_str());
        continue;
      }
      const Parsed p = parse(a.line);
      latency.push_back(a.latency_ms);
      per_op[a.req->op].push_back(a.latency_ms);
      const long long el = int_of(&p.doc, "elapsed_ms");
      server_ms.push_back(static_cast<double>(el));
      overhead_ms.push_back(a.latency_ms - static_cast<double>(el));
      const std::string cache = string_of(&p.doc, "cache");
      hits += cache == "hit";
      misses += cache == "miss";
      // Results differ only by job: built-in jobs repeat every round,
      // inline ones every kInlineCircuits uses.
      const std::string key = a.req->op + "/" + circuit_label(a);
      const std::string res = result_text(a.line);
      auto [it, fresh] = result_by_job.emplace(key, res);
      out.expect(fresh || it->second == res,
                 "repeated " + key + " request answered differently");
      checked.push_back(&a);
    }
  }
  out.expect(!lost.load() || out.failed > 0, "a request went unanswered");
  out.set("op_p50_ms", median(latency), "ms");
  out.set("ops_per_s", static_cast<double>(latency.size()) / loop_s, "1/s");

  // Figures of the round's built-in answers, identical in every round.
  const auto result_int = [&](const std::string& key, const char* field) {
    const auto it = result_by_job.find(key);
    if (it == result_by_job.end()) return -1LL;
    const Parsed p = parse(it->second);
    return p.valid ? int_of(&p.doc, field) : -1LL;
  };
  out.set("faults_detected",
          static_cast<double>(result_int("atpg/sn74181", "detected") +
                              result_int("fault_sim/sn74181", "detected") +
                              result_int("fault_sim/rand2k", "detected") +
                              result_int("bist/rand2k", "detected")),
          "count");
  out.set("test_count", static_cast<double>(result_int("atpg/sn74181", "tests")),
          "count");

  // serve_check over the whole transcript: schema, typed errors and
  // exactly-once ids, with every request answered.
  {
    const std::string path = args.work_dir + "/transcript-" +
                             std::to_string(getpid()) + ".ndjson";
    {
      std::ofstream f(path);
      for (const std::string& l : transcript) f << l << "\n";
    }
    Child check({args.serve_check,
                 args.root + "/data/serve_response_schema_v1.json", path,
                 "--require-answered", std::to_string(out.attempted)},
                false);
    const int status = check.wait();
    unlink(path.c_str());
    out.expect(WIFEXITED(status) && WEXITSTATUS(status) == 0,
               "serve_check rejects the transcript");
  }

  // Answers recomputed apart from the daemon: atpg tests replayed and
  // fault_sim graded on the serial engine, bist signatures on ParallelSim,
  // inline measure answers sized against the parsed circuit.
  std::map<std::string, Netlist> circuits;
  for (const Answer* a : checked) {
    if (g_interrupted.load()) return;
    const std::string key = a->req->op + "/" + circuit_label(*a);
    if (a->req->op == "lint" || a->req->op == "sta" ||
        (a->req->op == "measure" && a->req->pool == Pool::None)) {
      continue;
    }
    auto [it, fresh] = circuits.try_emplace(key);
    if (!fresh) continue;  // answers to one job are identical (checked above)
    it->second = a->req->pool == Pool::None
                     ? serve::builtin_circuit(a->req->circuit)
                     : read_bench_string(pools.at(a->req->pool)[static_cast<std::size_t>(
                           a->inline_index)]);
    const Netlist& nl = it->second;
    const Parsed p = parse(a->line);
    const obs::Json* result = p.doc.find("result");
    if (a->req->op == "measure") {
      out.expect(int_of(result, "gates") == static_cast<long long>(nl.size()),
                 key + ": gate count differs from the parsed circuit");
    } else if (a->req->op == "atpg") {
      std::vector<SourceVector> tests;
      const obs::Json* vec = result == nullptr ? nullptr : result->find("vectors");
      if (vec != nullptr && vec->is_array()) {
        for (const obs::Json& v : vec->as_array()) {
          tests.push_back(parse_vector(v.is_string() ? v.as_string() : ""));
        }
      }
      out.expect(static_cast<long long>(tests.size()) == int_of(result, "tests"),
                 key + ": vectors and test count differ");
      check_replay_count(nl, collapse_faults(nl).representatives, tests,
                         static_cast<int>(int_of(result, "detected")), key, out);
    } else if (a->req->op == "fault_sim") {
      const int patterns = a->req->pool == Pool::None ? kPatterns : kInlinePatterns;
      out.expect(reference_fault_sim(nl, kRequestSeed, patterns) ==
                     int_of(result, "detected"),
                 key + ": detected count differs from the reference grading");
    } else if (a->req->op == "bist") {
      char sig[20];
      std::snprintf(sig, sizeof sig, "%016llx",
                    static_cast<unsigned long long>(parallel_signature(
                        nl, prpg_patterns(nl, kPatterns, kRequestSeed))));
      out.expect(string_of(result, "signature") == sig,
                 key + ": signature differs from the ParallelSim recomputation");
    }
  }

  if (!args.trace) return;
  Samples layer;
  layer.add("serve.samples", static_cast<double>(latency.size()), "count");
  layer.add("serve.p99_ms", quantile(latency, 0.99), "ms");
  layer.add("serve.server_ms", median(server_ms), "ms");
  layer.add("serve.overhead_ms", median(overhead_ms), "ms");
  layer.add("serve.cache_hits", static_cast<double>(hits), "count");
  layer.add("serve.cache_misses", static_cast<double>(misses), "count");
  for (const auto& [op, v] : per_op) {
    layer.add("serve.op." + op + ".p50_ms", median(v), "ms");
  }

  // The layers under the daemon, called in-process on the mix's inputs.
  for (const Request& r : mix) {
    const std::string line = request_line(
        "p", r, r.pool == Pool::None ? nullptr : &pools.at(r.pool)[0]);
    for (int rep = 0; rep < 20; ++rep) {
      const auto t0 = Clock::now();
      const serve::ServeRequest req = serve::parse_request(line);
      layer.add("serve.parse_request_us", 1e6 * seconds_since(t0), "us");
    }
  }
  for (int i = 0; i < 8; ++i) {
    const std::string& text = pools.at(Pool::Large)[static_cast<std::size_t>(i)];
    serve::ServeRequest req;
    req.id = "p";
    req.bench = text;
    auto t0 = Clock::now();
    const auto compiled_circuit = serve::compile_circuit(req);
    layer.add("serve.compile_circuit_ms", 1000 * seconds_since(t0), "ms");
    t0 = Clock::now();
    const Netlist nl = read_bench_string(text);
    layer.add("netlist.parse_s", seconds_since(t0), "s");
    t0 = Clock::now();
    const CompiledNetlist compiled(nl);
    layer.add("netlist.compile_s", seconds_since(t0), "s");
    t0 = Clock::now();
    const std::vector<Fault> faults = collapse_faults(nl).representatives;
    layer.add("fault.collapse_s", seconds_since(t0), "s");
  }
  const Netlist big = serve::builtin_circuit("rand2k");
  const std::vector<Fault> big_faults = collapse_faults(big).representatives;
  auto t0 = Clock::now();
  const LintReport lint = lint_netlist(big);
  layer.add("lint.run_ms", 1000 * seconds_since(t0), "ms");
  t0 = Clock::now();
  const ScoapResult scoap = compute_scoap(big);
  layer.add("measure.scoap_ms", 1000 * seconds_since(t0), "ms");
  t0 = Clock::now();
  const sta::StaticAnalyzer analyzer(big);
  const std::size_t untestable = analyzer.untestable_faults(big_faults).size();
  layer.add("sta.analyze_s", seconds_since(t0), "s");
  layer.add("sta.faults_pruned", static_cast<double>(untestable), "count");

  const std::vector<SourceVector> bist_patterns =
      prpg_patterns(big, kPatterns, kRequestSeed);
  obs::Registry::global().reset();
  t0 = Clock::now();
  comb_signature(big, bist_patterns);
  layer.add("sim.signature_s", seconds_since(t0), "s");
  layer.add("sim.signature_gate_evals", obs_counter("sim.comb.gate_evals"),
            "count");

  // The fault_sim op on rand2k, graded at 1 and at kWorkers workers.
  std::mt19937_64 rng(kRequestSeed);
  std::vector<SourceVector> fs_patterns;
  for (int p = 0; p < kPatterns; ++p) fs_patterns.push_back(random_source_vector(big, rng));
  double t1 = 0, s1 = 0;
  for (int w : {1, kWorkers}) {
    obs::Registry::global().reset();
    t0 = Clock::now();
    make_fault_sim_engine(big, "", w)->run(fs_patterns, big_faults, true);
    const double secs = seconds_since(t0);
    const double simulated = obs_counter("fault_sim.ppsfp.faults_simulated");
    if (w == 1) {
      t1 = secs;
      s1 = simulated;
      layer.add("fault.grade_1w_s", secs, "s");
    } else {
      layer.add("fault.grade_s", secs, "s");
      layer.add("fault.grade_events", obs_counter("fault_sim.event.events_scheduled"), "count");
      layer.add("fault.grade_faults_simulated", simulated, "count");
      layer.add("fault.grade_work_ratio", s1 > 0 ? simulated / s1 : 0, "ratio");
      layer.add("fault.grade_speedup", secs > 0 ? t1 / secs : 0, "ratio");
    }
  }

  // The small-circuit atpg op, in-process.
  const Netlist small = serve::builtin_circuit("sn74181");
  const std::vector<Fault> small_faults = collapse_faults(small).representatives;
  AtpgOptions aopt;
  aopt.seed = kRequestSeed;
  aopt.backtrack_limit = serve::RequestOptions{}.backtrack_limit;
  obs::Registry::global().reset();
  t0 = Clock::now();
  const AtpgRun run = run_atpg(small, small_faults, aopt);
  const double span = seconds_since(t0);
  const double podem_s = obs_timer_s("phase.atpg.deterministic");
  layer.add("atpg.run_span_s", span, "s");
  layer.add("atpg.random_s", obs_timer_s("phase.atpg.random"), "s");
  layer.add("atpg.random_detected", run.random_phase_detected, "count");
  layer.add("atpg.podem_s", podem_s, "s");
  layer.add("atpg.podem_calls", obs_counter("podem.calls"), "count");
  layer.add("atpg.podem_decisions", obs_counter("podem.decisions"), "count");
  layer.add("atpg.podem_backtracks", obs_counter("podem.backtracks"), "count");
  layer.add("atpg.podem_implications", obs_counter("podem.implications"), "count");
  layer.add("atpg.podem_decisions_per_s",
            podem_s > 0 ? obs_counter("podem.decisions") / podem_s : 0, "1/s");
  layer.add("atpg.podem_aborted", obs_counter("podem.aborted"), "count");
  layer.add("atpg.compact_s", obs_timer_s("phase.atpg.compact"), "s");
  layer.add("atpg.final_sim_s", obs_timer_s("phase.atpg.final_sim"), "s");
  out.expect(result_int("atpg/sn74181", "detected") == run.detected,
             "in-process sn74181 atpg differs from the served answer");
  layer.emit(out);
}

}  // namespace bench

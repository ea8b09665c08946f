// Chaos smoke tests: small, checker-validated fault-injection runs wired
// into ctest — the tier-1 face of bench/chaos_harness.
//
//  * sim workloads under tolerated crash plans stay atomic;
//  * a malformed plan aborts the run instead of silently dropping the
//    adversary;
//  * an over-budget plan (crashes > t) finishes via per-op deadlines with
//    counted timeouts — never hangs;
//  * the TCP client rides out a daemon restart: reconnect + retransmit
//    completes an operation issued while the daemon was down.
#include "common/sync.h"
#include "harness/workload.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>

#include "faults/fault_plan.h"
#include "nad/client.h"
#include "nad/server.h"

namespace nadreg {
namespace {

using namespace std::chrono_literals;
using harness::Algorithm;
using harness::RunWorkload;
using harness::WorkloadOptions;

TEST(ChaosSmoke, SimWorkloadUnderCrashPlanStaysAtomic) {
  WorkloadOptions w;
  w.algorithm = Algorithm::kSwmrAtomic;
  w.seed = 21;
  w.t = 1;
  w.readers = 2;
  w.ops_per_process = 6;
  w.fault_plan_text =
      "at 100us delay 1 20us 80us\n"
      "at 200us crash-disk 2\n"
      "at 500us heal 1\n";
  auto res = RunWorkload(w);
  EXPECT_TRUE(res.fault_plan_status.ok());
  EXPECT_TRUE(res.check.ok) << res.check.explanation;
  EXPECT_EQ(res.timeouts, 0u);  // within budget: every op terminates
}

TEST(ChaosSmoke, SequentialConsistencyHoldsUnderCrashPlan) {
  WorkloadOptions w;
  w.algorithm = Algorithm::kMwsrSeqCst;
  w.seed = 23;
  w.t = 1;
  w.writers = 2;
  w.ops_per_process = 5;
  w.fault_plan_text = "at 150us crash-disk 0\n";
  auto res = RunWorkload(w);
  EXPECT_TRUE(res.ok()) << res.check.explanation;
}

TEST(ChaosSmoke, MalformedPlanAbortsTheRun) {
  WorkloadOptions w;
  w.algorithm = Algorithm::kSwsrAtomic;
  w.fault_plan_text = "at soon crash-disk 0\n";
  auto res = RunWorkload(w);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.fault_plan_status.code(), StatusCode::kInvalid);
  EXPECT_TRUE(res.history.empty());  // nothing ran
}

TEST(ChaosSmoke, OverBudgetPlanTimesOutInsteadOfHanging) {
  WorkloadOptions w;
  w.algorithm = Algorithm::kSwsrAtomic;
  w.seed = 29;
  w.t = 1;
  w.ops_per_process = 2;
  w.fault_plan_text =
      "at 0us crash-disk 0\n"
      "at 0us crash-disk 1\n";  // 2 > t=1: over the paper's budget
  w.op_deadline = 100ms;
  auto res = RunWorkload(w);
  // Returning from RunWorkload at all is the point; the abandoned ops
  // are all counted and whatever completed is still consistent.
  EXPECT_GT(res.timeouts, 0u);
  EXPECT_TRUE(res.check.ok) << res.check.explanation;
  EXPECT_EQ(res.faults_injected, 2u);
}

TEST(ChaosSmoke, TcpWorkloadSurvivesDisconnects) {
  WorkloadOptions w;
  w.algorithm = Algorithm::kSwsrAtomic;
  w.seed = 31;
  w.t = 1;
  w.ops_per_process = 20;
  w.over_tcp = true;
  w.max_delay_us = 0;
  w.op_deadline = 5000ms;  // safety net so a bug fails instead of hanging
  w.fault_plan_text =
      "at 0us delay 0 50us 150us\n"
      "at 0us delay 1 50us 150us\n"
      "at 0us delay 2 50us 150us\n"
      "at 500us disconnect 0\n"
      "at 2ms disconnect 2\n";
  auto res = RunWorkload(w);
  EXPECT_TRUE(res.ok()) << res.check.explanation;
  EXPECT_EQ(res.timeouts, 0u);
}

TEST(ChaosSmoke, ClientReconnectsAfterServerRestart) {
  auto first = nad::NadServer::Start({});
  ASSERT_TRUE(first.ok());
  const std::uint16_t port = (*first)->port();

  std::map<DiskId, nad::Endpoint> eps;
  eps[0] = nad::Endpoint{"127.0.0.1", port};
  auto client = nad::NadClient::Connect(eps);  // reconnect on by default
  ASSERT_TRUE(client.ok());

  Mutex mu;
  CondVar cv;
  int done = 0;
  auto bump = [&] {
    MutexLock lock(mu);
    ++done;
    cv.NotifyAll();
  };
  auto wait_for = [&](int target, std::chrono::milliseconds d) {
    MutexLock lock(mu);
    return cv.WaitFor(mu, d, [&] { return done >= target; });
  };

  (*client)->IssueWrite(1, RegisterId{0, 1}, "before", [&] { bump(); });
  ASSERT_TRUE(wait_for(1, 2000ms));

  (*first)->Stop();  // daemon goes away; SO_REUSEADDR frees the port

  // Issued while the daemon is down: must be retransmitted after the
  // client's backoff loop reaches the restarted daemon.
  (*client)->IssueWrite(1, RegisterId{0, 2}, "during", [&] { bump(); });

  nad::NadServer::Options so;
  so.port = port;
  auto second = nad::NadServer::Start(so);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  EXPECT_TRUE(wait_for(2, 10000ms));

  // The restarted (volatile) daemon is fully usable afterwards.
  std::string got;
  (*client)->IssueRead(2, RegisterId{0, 2}, [&](Value v) {
    got = std::move(v);
    bump();
  });
  ASSERT_TRUE(wait_for(3, 2000ms));
  EXPECT_EQ(got, "during");
}

}  // namespace
}  // namespace nadreg

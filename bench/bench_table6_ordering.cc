// Reproduces Table 6: the contribution of job ordering (JO) and monotask
// ordering (MO) to enforcing the registered ordering policies, on the
// TPC-H2 workload.
//
// Paper's shape: MO alone is more effective than JO alone (queue ordering
// directly controls both resource allocation and monotask execution), and
// JO+MO is best; SRJF gives worse makespan than EJF in exchange for better
// average JCT.
//
// The policy columns come from OrderingPolicyRegistry() (DESIGN.md section
// 13), so a newly registered ordering policy shows up in the table without
// touching this bench.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/workloads/tpch.h"

int main(int argc, char** argv) {
  if (const int rc = ursa::FlagSet().Parse(argc, argv)) {
    return rc;  // This bench takes no flags.
  }
  using namespace ursa;
  const Workload workload = MakeTpch2Workload(1234);
  const std::vector<OrderingPolicyInfo>& policies = OrderingPolicyRegistry();

  std::vector<std::string> headers = {"setting"};
  for (const OrderingPolicyInfo& info : policies) {
    headers.push_back(std::string("makespan(") + info.name + ")");
    headers.push_back(std::string("avgJCT(") + info.name + ")");
  }
  Table table(headers);

  struct Setting {
    const char* name;
    bool jo;
    bool mo;
  };
  for (const Setting& setting :
       {Setting{"JO", true, false}, Setting{"MO", false, true}, Setting{"JO+MO", true, true}}) {
    Table& row = table.Row().Cell(setting.name);
    for (const OrderingPolicyInfo& info : policies) {
      ExperimentConfig config = UrsaOrderingConfig(info.policy);
      config.ursa.enable_job_ordering = setting.jo;
      config.ursa.enable_monotask_ordering = setting.mo;
      const ExperimentResult result =
          RunExperiment(workload, config, std::string(setting.name) + "-" + info.name);
      row.Cell(result.makespan(), 2).Cell(result.avg_jct(), 2);
    }
  }
  table.Print("Table 6: job/task ordering on TPC-H2 (sec)");
  return 0;
}

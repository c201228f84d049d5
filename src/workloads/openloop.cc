#include "src/workloads/openloop.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/logging.h"

namespace ursa {

namespace {

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream in(s);
  while (std::getline(in, field, sep)) {
    out.push_back(field);
  }
  if (!s.empty() && s.back() == sep) {
    out.emplace_back();
  }
  return out;
}

bool ParseDoubleField(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

bool ParseIntField(const std::string& s, int* out) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

bool ParseTenantSpecs(const std::string& spec, std::vector<TenantSpec>* out,
                      std::string* error) {
  out->clear();
  for (const std::string& entry : Split(spec, ',')) {
    const std::vector<std::string> fields = Split(entry, ':');
    if (fields.empty() || fields[0].empty() || fields.size() > 4) {
      *error = "malformed tenant spec '" + entry + "' (want name[:weight[:tier[:slo]]])";
      return false;
    }
    TenantSpec tenant;
    tenant.name = fields[0];
    if (fields.size() > 1 && !ParseDoubleField(fields[1], &tenant.weight)) {
      *error = "bad tenant weight in '" + entry + "'";
      return false;
    }
    if (fields.size() > 2 && !ParseIntField(fields[2], &tenant.tier)) {
      *error = "bad tenant tier in '" + entry + "'";
      return false;
    }
    if (fields.size() > 3 && !ParseDoubleField(fields[3], &tenant.slo)) {
      *error = "bad tenant slo in '" + entry + "'";
      return false;
    }
    if (tenant.weight <= 0.0) {
      *error = "tenant weight must be > 0 in '" + entry + "'";
      return false;
    }
    if (tenant.tier < 0) {
      *error = "tenant tier must be >= 0 in '" + entry + "'";
      return false;
    }
    if (tenant.slo < 0.0) {
      *error = "tenant slo must be >= 0 in '" + entry + "'";
      return false;
    }
    out->push_back(std::move(tenant));
  }
  if (out->empty()) {
    *error = "empty tenant spec";
    return false;
  }
  return true;
}

bool LoadInterarrivalTrace(const std::string& path, std::vector<double>* gaps,
                           std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open arrival trace " + path;
    return false;
  }
  gaps->clear();
  std::string token;
  while (in >> token) {
    double gap = 0.0;
    if (!ParseDoubleField(token, &gap) || gap < 0.0) {
      *error = "bad inter-arrival gap '" + token + "' in " + path;
      return false;
    }
    gaps->push_back(gap);
  }
  if (gaps->empty()) {
    *error = "arrival trace " + path + " is empty";
    return false;
  }
  return true;
}

OpenLoopSource::OpenLoopSource(const OpenLoopConfig& config)
    : config_(config),
      // Independent streams: stretching arrival gaps must not perturb the
      // tenant/job sequence, and vice versa.
      arrival_rng_(config.seed * 2 + 1),
      tenant_rng_(config.seed * 2 + 2) {
  CHECK_GE(config_.max_jobs, 0);
  tenants_ = config_.tenants;
  if (tenants_.empty()) {
    TenantSpec tenant;
    tenant.name = "default";
    tenants_.push_back(std::move(tenant));
  }
  for (const TenantSpec& tenant : tenants_) {
    CHECK_GT(tenant.weight, 0.0) << "tenant " << tenant.name;
    total_weight_ += tenant.weight;
  }
  if (!config_.trace_file.empty()) {
    std::string error;
    CHECK(LoadInterarrivalTrace(config_.trace_file, &trace_gaps_, &error)) << error;
  } else {
    CHECK_GT(config_.arrival_rate, 0.0);
  }
}

bool OpenLoopSource::Exhausted() const { return generated_ >= config_.max_jobs; }

double OpenLoopSource::NextGap() {
  if (!trace_gaps_.empty()) {
    const double gap = trace_gaps_[trace_pos_];
    trace_pos_ = (trace_pos_ + 1) % trace_gaps_.size();
    return gap;
  }
  return arrival_rng_.Exponential(config_.arrival_rate);
}

const TenantSpec& OpenLoopSource::PickTenant() {
  double draw = tenant_rng_.Uniform(0.0, total_weight_);
  for (const TenantSpec& tenant : tenants_) {
    draw -= tenant.weight;
    if (draw < 0.0) {
      return tenant;
    }
  }
  return tenants_.back();
}

JobSpec OpenLoopSource::NextJob() {
  const TenantSpec& tenant = PickTenant();
  SyntheticJobParams params = config_.job_template;
  params.type = generated_ % 2 == 0 ? 1 : 2;  // Alternate job sizes.
  JobSpec spec =
      BuildSyntheticJob(params, config_.seed + static_cast<uint64_t>(generated_) * 7919);
  spec.name = tenant.name + "-" + std::to_string(generated_);
  spec.klass = "openloop";
  spec.tenant = tenant.name;
  spec.priority_tier = tenant.tier;
  spec.slo_seconds = tenant.slo;
  ++generated_;
  return spec;
}

}  // namespace ursa

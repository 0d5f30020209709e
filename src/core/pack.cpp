#include "core/pack.hpp"

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace coredis::core {

Pack::Pack(std::vector<TaskSpec> tasks, speedup::ModelPtr model)
    : tasks_(std::move(tasks)), model_(std::move(model)) {
  if (tasks_.empty()) throw std::invalid_argument("Pack: no tasks");
  if (!model_) throw std::invalid_argument("Pack: null speedup model");
  for (const TaskSpec& t : tasks_)
    if (!(t.data_size > 1.0))
      throw std::invalid_argument("Pack: task data size must exceed 1");
}

const TaskSpec& Pack::task(int i) const {
  COREDIS_EXPECTS(i >= 0 && i < size());
  return tasks_[static_cast<std::size_t>(i)];
}

double Pack::fault_free_time(int i, int j) const {
  COREDIS_EXPECTS(j >= 1);
  const TaskSpec& spec = task(i);
  const speedup::Model& model = spec.profile ? *spec.profile : *model_;
  return model.time(spec.data_size, j);
}

void Pack::even_fault_free_times(int i, int j_first, std::size_t count,
                                 double* out) const {
  COREDIS_EXPECTS(j_first >= 1);
  const TaskSpec& spec = task(i);
  const speedup::Model& model = spec.profile ? *spec.profile : *model_;
  model.even_times(spec.data_size, j_first, count, out);
}

Pack Pack::uniform_random(int n, double m_inf, double m_sup,
                          speedup::ModelPtr model, Rng& rng) {
  COREDIS_EXPECTS(n >= 1);
  COREDIS_EXPECTS(m_inf > 1.0 && m_inf <= m_sup);
  std::vector<TaskSpec> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    tasks.push_back(TaskSpec{rng.uniform(m_inf, m_sup)});
  return Pack(std::move(tasks), std::move(model));
}

}  // namespace coredis::core

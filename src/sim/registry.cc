/** @file Experiment registry (see registry.hh). */

#include "sim/registry.hh"

#include <stdexcept>

namespace fpc {

ExperimentRegistry &
ExperimentRegistry::instance()
{
    static ExperimentRegistry registry;
    return registry;
}

std::vector<ExperimentPoint>
ExperimentDef::build(const SweepOptions &opts) const
{
    std::vector<ExperimentPoint> points = expand(opts);
    for (ExperimentPoint &p : points) {
        p.experiment = name;
        p.scale = opts.scale;
        p.baseSeed = opts.seed;
        if (p.label.empty())
            p.label = standardLabel(p.workload, p.cfg);
    }
    return points;
}

void
ExperimentRegistry::add(ExperimentDef def)
{
    if (find(def.name))
        throw std::runtime_error("duplicate experiment: " +
                                 def.name);
    defs_.push_back(std::move(def));
}

const ExperimentDef *
ExperimentRegistry::find(const std::string &name) const
{
    for (const ExperimentDef &def : defs_) {
        if (def.name == name)
            return &def;
    }
    return nullptr;
}

std::vector<std::string>
ExperimentRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(defs_.size());
    for (const ExperimentDef &def : defs_)
        out.push_back(def.name);
    return out;
}

} // namespace fpc

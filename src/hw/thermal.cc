#include "hw/thermal.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace edgereason {
namespace hw {

ThermalSimulator::ThermalSimulator(ThermalSpec spec,
                                   PowerMode initial_mode)
    : spec_(spec), mode_(initial_mode), temp_(spec.initialC)
{
    fatal_if(spec_.rThermal <= 0.0 || spec_.cThermal <= 0.0,
             "thermal RC must be positive");
    fatal_if(spec_.recoverC >= spec_.throttleC,
             "recovery temperature must sit below the throttle point");
}

PowerMode
ThermalSimulator::stepDown(PowerMode m) const
{
    switch (m) {
      case PowerMode::MaxN:
        return PowerMode::W50;
      case PowerMode::W50:
        return PowerMode::W30;
      case PowerMode::W30:
      case PowerMode::W15:
        return PowerMode::W15;
    }
    panic("unknown power mode");
}

PowerMode
ThermalSimulator::stepUp(PowerMode m) const
{
    switch (m) {
      case PowerMode::W15:
        return PowerMode::W30;
      case PowerMode::W30:
        return PowerMode::W50;
      case PowerMode::W50:
      case PowerMode::MaxN:
        return PowerMode::MaxN;
    }
    panic("unknown power mode");
}

void
ThermalSimulator::reset(PowerMode initial_mode)
{
    mode_ = initial_mode;
    temp_ = spec_.initialC;
    trajectory_.clear();
}

double
ThermalSimulator::steadyStateC(Watts power) const
{
    return spec_.ambientC + power * spec_.rThermal;
}

Watts
ThermalSimulator::deratedPower(Watts maxn_power, Watts idle) const
{
    // Derate the MAXN draw to the governed mode (same DVFS rule as
    // PowerModel::finish).
    const double scale = powerModeScale(mode_);
    Watts p = maxn_power;
    if (scale < 1.0 && p > idle)
        p = idle + (p - idle) * std::pow(scale, 1.5);
    return std::min(p, powerModeCap(mode_));
}

ThermalSample
ThermalSimulator::step(Watts maxn_power, Seconds dt, Watts idle)
{
    fatal_if(dt <= 0.0, "thermal step needs dt > 0");
    panic_if(maxn_power < 0.0, "negative power");

    const Watts p = deratedPower(maxn_power, idle);

    // Exact RC integration over dt at constant power.
    const double tau = spec_.rThermal * spec_.cThermal;
    const double t_inf = steadyStateC(p);
    temp_ = t_inf + (temp_ - t_inf) * std::exp(-dt / tau);

    // Hysteretic governor.
    if (temp_ >= spec_.throttleC)
        mode_ = stepDown(mode_);
    else if (temp_ <= spec_.recoverC)
        mode_ = stepUp(mode_);

    ThermalSample s;
    s.time = trajectory_.empty() ? dt : trajectory_.back().time + dt;
    s.temperatureC = temp_;
    s.mode = mode_;
    s.power = p;
    trajectory_.push_back(s);
    return s;
}

ThermalSample
ThermalSimulator::advance(Watts maxn_power, Seconds dt,
                          std::uint64_t steps, Watts idle)
{
    fatal_if(dt <= 0.0, "thermal advance needs dt > 0");
    fatal_if(steps == 0, "thermal advance needs steps >= 1");
    panic_if(maxn_power < 0.0, "negative power");

    const Watts p = deratedPower(maxn_power, idle);

    // k first-order updates toward a fixed target compose into one:
    // T_k = T_inf + (T_0 - T_inf) * exp(-k dt / tau).
    const double tau = spec_.rThermal * spec_.cThermal;
    const double t_inf = steadyStateC(p);
    temp_ = t_inf +
            (temp_ - t_inf) *
                std::exp(-(static_cast<double>(steps) * dt) / tau);

    // Hysteretic governor, applied once at the segment end.
    if (temp_ >= spec_.throttleC)
        mode_ = stepDown(mode_);
    else if (temp_ <= spec_.recoverC)
        mode_ = stepUp(mode_);

    const Seconds span = static_cast<double>(steps) * dt;
    ThermalSample s;
    s.time = trajectory_.empty() ? span : trajectory_.back().time + span;
    s.temperatureC = temp_;
    s.mode = mode_;
    s.power = p;
    trajectory_.push_back(s);
    return s;
}

std::uint64_t
ThermalSimulator::stepsToThresholdCrossing(Watts maxn_power,
                                           Seconds dt, Watts idle) const
{
    fatal_if(dt <= 0.0, "thermal crossing needs dt > 0");
    panic_if(maxn_power < 0.0, "negative power");

    constexpr std::uint64_t kNever = UINT64_MAX;
    const Watts p = deratedPower(maxn_power, idle);
    const double tau = spec_.rThermal * spec_.cThermal;
    const double t_inf = steadyStateC(p);

    // Which threshold can this trajectory reach, and would the
    // governor's action there actually change the mode?
    double thr;
    if (t_inf > temp_) {
        if (stepDown(mode_) == mode_)
            return kNever; // already at the ladder bottom
        thr = spec_.throttleC;
        if (temp_ >= thr)
            return 1; // past the threshold before any step
        if (t_inf <= thr)
            return kNever; // asymptote never reaches the trigger
    } else {
        if (stepUp(mode_) == mode_)
            return kNever; // already at the ladder top
        thr = spec_.recoverC;
        if (temp_ <= thr)
            return 1;
        if (t_inf >= thr)
            return kNever;
    }

    // Solve T_inf + (T_0 - T_inf) r^k  crossing  thr  for integer k,
    // with r = exp(-dt/tau): k = ln(ratio) / ln(r).  Both logs are
    // negative (0 < ratio < 1, 0 < r < 1), so k is positive.
    const double ratio = (thr - t_inf) / (temp_ - t_inf);
    const double k_real = std::log(ratio) / (-(dt / tau));
    if (!std::isfinite(k_real))
        return kNever;
    const double k_ceil = std::ceil(k_real);
    if (k_ceil >= static_cast<double>(kNever))
        return kNever;
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(k_ceil));
}

double
ThermalSimulator::sustainedSpeedFactor(Watts maxn_power,
                                       Seconds duration, Seconds dt)
{
    fatal_if(duration <= 0.0, "duration must be positive");
    double speed_time = 0.0;
    Seconds t = 0.0;
    while (t < duration) {
        // Work delivered during this step runs at the mode active
        // while stepping.
        const double s = powerModeScale(mode_);
        step(maxn_power, dt);
        speed_time += s * dt;
        t += dt;
    }
    return speed_time / duration;
}

template <class Ar>
void
ThermalSimulator::io(Ar &a)
{
    a.f64(temp_);
    a.enum8(mode_, PowerMode::MaxN);
    if constexpr (Ar::kReading) {
        fatalAt(a, !std::isfinite(temp_),
                "thermal restore: non-finite temperature");
        trajectory_.clear();
    }
}

template void ThermalSimulator::io(ByteWriter &);
template void ThermalSimulator::io(ByteReader &);

} // namespace hw
} // namespace edgereason

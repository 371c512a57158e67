/**
 * @file
 * First-order thermal model of the Orin module.  The paper measures
 * short benchmark runs at MAXN; sustained edge inference (a robot
 * reasoning continuously, a kiosk serving queries) is instead bounded
 * by the thermal solution: junction temperature follows an RC response
 * to dissipated power, and the firmware steps the power mode down when
 * the throttle threshold is reached.
 *
 *   C_th dT/dt = P - (T - T_ambient) / R_th
 *
 * with hysteretic mode governance: throttle one mode step at
 * T >= throttleC, recover one step at T <= recoverC.
 */

#ifndef EDGEREASON_HW_THERMAL_HH
#define EDGEREASON_HW_THERMAL_HH

#include <cstdint>
#include <vector>

#include "common/binio.hh"
#include "common/types.hh"
#include "hw/gpu_spec.hh"

namespace edgereason {
namespace hw {

/** Thermal parameters of the module + heatsink assembly. */
struct ThermalSpec
{
    double ambientC = 25.0;
    /** Junction-to-ambient thermal resistance (C per watt). */
    double rThermal = 1.4;
    /** Thermal capacitance (joules per C): module + heatsink mass. */
    double cThermal = 250.0;
    /** Throttle trigger temperature. */
    double throttleC = 85.0;
    /** Recovery temperature (hysteresis). */
    double recoverC = 75.0;
    double initialC = 25.0;
};

/** One sample of the thermal trajectory. */
struct ThermalSample
{
    Seconds time = 0.0;
    double temperatureC = 0.0;
    PowerMode mode = PowerMode::MaxN;
    Watts power = 0.0;
};

/**
 * Integrates the RC model over a workload and governs the power mode.
 * The workload is expressed as the power the device would draw *at
 * MAXN*; the governor derates it per the active mode's DVFS scaling
 * (matching PowerModel::finish) and reports the effective slowdown.
 */
class ThermalSimulator
{
  public:
    explicit ThermalSimulator(ThermalSpec spec = {},
                              PowerMode initial_mode = PowerMode::MaxN);

    /**
     * Advance @p dt seconds at a MAXN-equivalent power draw.
     * @return the sample at the end of the step.
     */
    ThermalSample step(Watts maxn_power, Seconds dt, Watts idle = 3.0);

    /** @return current junction temperature. */
    double temperature() const { return temp_; }
    /** @return current governed power mode. */
    PowerMode mode() const { return mode_; }
    /** @return true while the governor holds a derated mode. */
    bool throttled() const { return powerModeScale(mode_) < 1.0; }
    /** @return the thermal parameters in use. */
    const ThermalSpec &spec() const { return spec_; }

    /** Reset temperature/mode/trajectory to the initial state. */
    void reset(PowerMode initial_mode = PowerMode::MaxN);
    /** @return relative throughput of the current mode vs MAXN. */
    double speedFactor() const { return powerModeScale(mode_); }
    /** @return recorded trajectory (one sample per step call). */
    const std::vector<ThermalSample> &trajectory() const
    {
        return trajectory_;
    }

    /**
     * Steady-state temperature at a constant power draw (no
     * throttling considered): ambient + P * R_th.
     */
    double steadyStateC(Watts power) const;

    /**
     * Closed-form fast-forward: advance @p steps quanta of @p dt
     * seconds each at a constant MAXN-equivalent draw, without
     * governing between quanta.  With the mode fixed the derated
     * power — and thus the RC target T_inf — is constant, so the
     * repeated first-order update composes analytically:
     *
     *   T_k = T_inf + (T_0 - T_inf) * exp(-k dt / tau)
     *
     * The governor is applied once at the end and a single coalesced
     * trajectory sample covers the whole segment.  This matches
     * calling step() @p steps times only while no throttle/recover
     * transition would fire mid-segment (bound the segment with
     * stepsToThresholdCrossing() first), and even then only up to
     * floating-point round-off: the iterated update multiplies by
     * exp(-dt/tau) k times, the closed form once by exp(-k dt/tau).
     * Callers that need bit-identity with the stepped path (the
     * serving executor's exactness contract, DESIGN.md §10) must
     * keep per-quantum stepping instead.
     *
     * @return the sample at the end of the segment.
     */
    ThermalSample advance(Watts maxn_power, Seconds dt,
                          std::uint64_t steps, Watts idle = 3.0);

    /**
     * Number of whole @p dt quanta at a constant MAXN-equivalent
     * draw until the trajectory first reaches the threshold at which
     * the governor would *change* mode: throttleC when heating with
     * a mode that can still step down, recoverC when cooling with a
     * mode that can still step up.  Returns UINT64_MAX when no such
     * crossing ever happens (the asymptote sits inside the
     * hysteresis band, or the governor action at the threshold would
     * be a ladder-end no-op).  Always >= 1: the first quantum has to
     * be simulated before any crossing can be observed.
     */
    std::uint64_t stepsToThresholdCrossing(Watts maxn_power,
                                           Seconds dt,
                                           Watts idle = 3.0) const;

    /**
     * Sustained-operation summary: run @p duration seconds of
     * continuous load at the given MAXN power and report the average
     * speed factor (the fraction of MAXN throughput actually
     * delivered once thermals settle).
     */
    double sustainedSpeedFactor(Watts maxn_power, Seconds duration,
                                Seconds dt = 1.0);

    /**
     * Checkpoint field list of the governed state (temperature + power
     * mode); reading fatal()s on a non-finite temperature.  The
     * trajectory is observability-only — it never feeds back into the
     * model — so checkpoints omit it and a read clears it.
     */
    template <class Ar>
    void io(Ar &a);

  private:
    PowerMode stepDown(PowerMode m) const;
    PowerMode stepUp(PowerMode m) const;
    /** MAXN draw derated to the governed mode (PowerModel::finish rule). */
    Watts deratedPower(Watts maxn_power, Watts idle) const;

    ThermalSpec spec_;
    PowerMode mode_;
    double temp_;
    std::vector<ThermalSample> trajectory_;
};

} // namespace hw
} // namespace edgereason

#endif // EDGEREASON_HW_THERMAL_HH

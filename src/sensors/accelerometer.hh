/**
 * @file
 * Synthetic 3-axis accelerometer on the I2C bus.
 *
 * Stand-in for the accelerometer of the paper's activity-recognition
 * case study (Section 5.3.3). Generates an alternating
 * stationary/moving motion profile with ground-truth accessors so
 * the classifier's output can be verified against what the sensor
 * actually produced.
 */

#ifndef EDB_SENSORS_ACCELEROMETER_HH
#define EDB_SENSORS_ACCELEROMETER_HH

#include <cstdint>
#include <string>

#include "mcu/i2c.hh"
#include "sim/simulator.hh"

namespace edb::sim {
class SnapshotWriter;
class SnapshotReader;
} // namespace edb::sim

namespace edb::sensors {

/** Accelerometer register map. */
namespace accel_reg {
constexpr std::uint8_t whoAmI = 0x00;  ///< Identity: 0x2A.
constexpr std::uint8_t xHi = 0x01;     ///< Latches a fresh sample.
constexpr std::uint8_t xLo = 0x02;
constexpr std::uint8_t yHi = 0x03;
constexpr std::uint8_t yLo = 0x04;
constexpr std::uint8_t zHi = 0x05;
constexpr std::uint8_t zLo = 0x06;
constexpr std::uint8_t ctrl = 0x07;    ///< Writable control register.
} // namespace accel_reg

/** Motion-profile configuration. */
struct AccelConfig
{
    std::uint8_t busAddress = 0x1D;
    /** Mean dwell in each motion state. */
    sim::Tick meanDwell = 400 * sim::oneMs;
    /** 1 g in raw counts. */
    int gravityCounts = 1024;
    /** Noise sigma while stationary (counts). */
    double stillSigma = 12.0;
    /** Noise sigma while moving (counts). */
    double movingSigma = 220.0;
};

/** Synthetic accelerometer (I2C slave). */
class Accelerometer : public sim::Component, public mcu::I2cDevice
{
  public:
    Accelerometer(sim::Simulator &simulator, std::string component_name,
                  AccelConfig config = {});

    /// @name I2cDevice interface
    /// @{
    std::uint8_t address() const override { return cfg.busAddress; }
    std::uint8_t readReg(std::uint8_t reg) override;
    void writeReg(std::uint8_t reg, std::uint8_t value) override;
    /// @}

    /** Ground truth: is the synthetic subject moving right now? */
    bool moving();

    /** Samples latched so far. */
    std::uint64_t sampleCount() const { return samples; }

    /** Ground-truth count of samples latched while moving. */
    std::uint64_t movingSamples() const { return movingLatched; }

    /// @name Snapshot support (see sim/snapshot.hh)
    /// The motion profile draws the shared simulator RNG, which the
    /// snapshot restores separately; only the latched state lives
    /// here.
    /// @{
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r);
    /// @}

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    void maybeAdvanceState();
    void latchSample();

    AccelConfig cfg;
    bool isMoving = false;
    sim::Tick stateUntil = 0;
    std::int16_t x = 0;
    std::int16_t y = 0;
    std::int16_t z = 0;
    std::uint8_t ctrlReg = 0;
    std::uint64_t samples = 0;
    std::uint64_t movingLatched = 0;
};

} // namespace edb::sensors

#endif // EDB_SENSORS_ACCELEROMETER_HH

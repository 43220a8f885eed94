/**
 * @file
 * Deterministic fault injection for the experiment engine.
 *
 * Robustness code that is only exercised by real outages is dead code
 * with extra steps. A FaultPlan describes, per job label, exactly
 * what should go wrong and when — an exception thrown at simulated
 * cycle N, or a validation failure before the System is even built —
 * and the engine arms the corresponding hook when it runs that job.
 * Because faults fire at simulated cycles (via System::setFaultHook,
 * which participates in the fast-forward wake protocol), an injected
 * failure is exactly as reproducible as a successful run: same cycle,
 * same message, same resulting document, for any worker count.
 *
 * The file helpers at the bottom produce the other half of the test
 * matrix — truncated and corrupted trace and cache-entry files —
 * without tests hand-rolling file surgery.
 */

#ifndef SAC_SIM_FAULT_INJECTION_HH
#define SAC_SIM_FAULT_INJECTION_HH

#include <cstddef>
#include <map>
#include <string>

#include "common/types.hh"

namespace sac {

/** What to inject into one job, and when. */
struct FaultSpec
{
    enum class Kind : std::uint8_t
    {
        None,      //!< no fault; the job runs normally
        Fatal,     //!< throw FatalError at atCycle
        Panic,     //!< throw PanicError at atCycle (simulator bug)
        Validation //!< throw ValidationError before System is built
    };

    Kind kind = Kind::None;
    /** Simulated cycle at which an in-run fault fires. */
    Cycle atCycle = 0;
    std::string message = "injected fault";

    bool enabled() const { return kind != Kind::None; }

    // Convenience constructors for readable test plans.
    static FaultSpec fatalAt(Cycle cycle, std::string msg = "injected "
                                                            "fatal fault");
    static FaultSpec panicAt(Cycle cycle, std::string msg = "injected "
                                                            "panic");
    static FaultSpec validation(std::string msg = "injected validation "
                                                  "failure");
};

/**
 * Faults keyed by job label. Attach to an ExperimentPlan with
 * setFaultPlan(); jobs whose label has no entry run normally.
 *
 *   FaultPlan faults;
 *   faults.fail("CFD/SAC", FaultSpec::fatalAt(10'000));
 *   faults.fail("RN/Memory-side", FaultSpec::validation());
 *   plan.setFaultPlan(faults);
 */
class FaultPlan
{
  public:
    FaultPlan &fail(std::string label, FaultSpec spec);

    /** Spec for @p label, or nullptr when the job runs clean. */
    const FaultSpec *find(const std::string &label) const;

    bool empty() const { return faults_.empty(); }
    std::size_t size() const { return faults_.size(); }

  private:
    std::map<std::string, FaultSpec> faults_;
};

namespace fault_injection {

/**
 * Truncates the file at @p path to its first @p keep_bytes bytes —
 * the canonical "process was SIGKILLed mid-write" artifact for
 * cache-entry and trace robustness tests.
 */
void truncateFile(const std::string &path, std::size_t keep_bytes);

/**
 * Flips every bit of the byte at @p offset in @p path (clamped to
 * the last byte), producing a corrupt-but-same-length file.
 */
void corruptFile(const std::string &path, std::size_t offset);

} // namespace fault_injection

} // namespace sac

#endif // SAC_SIM_FAULT_INJECTION_HH

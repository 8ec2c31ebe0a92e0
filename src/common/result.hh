/**
 * @file
 * Recoverable error handling: Result<T> and fatal-error trapping.
 *
 * Historically every user-facing error (bad config value, assembler
 * syntax error, unknown preset) went through fatal(), which exits the
 * process. That is fine for one-shot bench binaries but wrong for a
 * driver that wants to print a diagnostic, suggest a fix and return a
 * distinct exit code. Result<T> is the recoverable path: operations
 * that can fail on user input return Result and the caller decides.
 *
 * trapFatal() bridges the two worlds: it runs a callable with fatal()
 * rerouted to throw (see ErrorTrap in logging.hh) and converts the
 * outcome into a Result, so deep call trees that still use fatal_if()
 * internally become recoverable at the boundary without threading
 * error codes through every layer.
 */

#ifndef SSTSIM_COMMON_RESULT_HH
#define SSTSIM_COMMON_RESULT_HH

#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace sst
{

/** Conventional process exit codes reported by the CLI tools. */
namespace exit_code
{
constexpr int ok = 0;
constexpr int archMismatch = 2; ///< timing model diverged from golden
constexpr int cycleBudget = 3;  ///< simulation exceeded max_cycles
constexpr int livelock = 4;     ///< watchdog gave up on forward progress
constexpr int diverged = 5;     ///< `sstsim diff` found a state divergence
constexpr int quarantine = 6;   ///< sweep finished with quarantined jobs
constexpr int svcFailure = 7;   ///< experiment-service fork/pipe failure
constexpr int usage = 64;       ///< malformed/unknown command-line key
constexpr int badInput = 65;    ///< bad config value / program input
} // namespace exit_code

/** A user-facing failure: message plus suggested process exit code. */
struct Error
{
    std::string message;
    int exitCode = exit_code::badInput;
};

/** Value-or-error return type for operations that can fail on input. */
template <typename T>
class [[nodiscard]] Result
{
  public:
    Result(T value) : value_(std::move(value)) {}
    Result(Error error) : error_(std::move(error)) {}

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    /** Only valid when ok(); misuse is a simulator bug. */
    T &value()
    {
        panic_if(!ok(), "Result::value() on error: %s",
                 error_.message.c_str());
        return *value_;
    }
    const T &value() const
    {
        panic_if(!ok(), "Result::value() on error: %s",
                 error_.message.c_str());
        return *value_;
    }
    T take()
    {
        panic_if(!ok(), "Result::take() on error: %s",
                 error_.message.c_str());
        return std::move(*value_);
    }

    /** Only valid when !ok(). */
    const Error &error() const
    {
        panic_if(ok(), "Result::error() on success");
        return error_;
    }

  private:
    std::optional<T> value_;
    Error error_;
};

/** Success-or-error, for operations with no payload. */
template <>
class [[nodiscard]] Result<void>
{
  public:
    Result() = default;
    Result(Error error) : error_(std::move(error)) {}

    bool ok() const { return !error_.has_value(); }
    explicit operator bool() const { return ok(); }

    const Error &error() const
    {
        panic_if(ok(), "Result::error() on success");
        return *error_;
    }

  private:
    std::optional<Error> error_;
};

/**
 * Run @p fn with fatal() rerouted to a catchable FatalError and return
 * the outcome as a Result. @p exitCode is attached to any error.
 */
template <typename F>
auto
trapFatal(F &&fn, int exitCode = exit_code::badInput)
    -> Result<std::invoke_result_t<F>>
{
    ErrorTrap trap;
    try {
        if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
            fn();
            return {};
        } else {
            return fn();
        }
    } catch (const FatalError &e) {
        return Error{e.message(), exitCode};
    }
}

} // namespace sst

#endif // SSTSIM_COMMON_RESULT_HH

#ifndef UNILOG_COMMON_SIM_TIME_H_
#define UNILOG_COMMON_SIM_TIME_H_

#include <algorithm>
#include <cstdint>
#include <string>

namespace unilog {

/// Simulated wall-clock time, in milliseconds since the Unix epoch. The
/// discrete-event simulator advances a virtual clock of this type; all log
/// timestamps, session gaps, and hourly partitions are expressed in it.
using TimeMs = int64_t;

inline constexpr TimeMs kMillisPerSecond = 1000;
inline constexpr TimeMs kMillisPerMinute = 60 * kMillisPerSecond;
inline constexpr TimeMs kMillisPerHour = 60 * kMillisPerMinute;
inline constexpr TimeMs kMillisPerDay = 24 * kMillisPerHour;

/// The paper's standard sessionization gap: "following standard practices,
/// we use a 30-minute inactivity interval to delimit user sessions" (§4.2).
inline constexpr TimeMs kSessionInactivityGapMs = 30 * kMillisPerMinute;

/// Broken-down UTC time.
struct CivilTime {
  int year = 1970;
  int month = 1;  // 1-12
  int day = 1;    // 1-31
  int hour = 0;   // 0-23
  int minute = 0;
  int second = 0;
  int millisecond = 0;
};

/// Converts a timestamp to broken-down UTC time.
CivilTime ToCivil(TimeMs t);

/// Converts broken-down UTC time to a timestamp.
TimeMs FromCivil(const CivilTime& c);

/// Convenience constructor: midnight UTC of the given date.
TimeMs MakeDate(int year, int month, int day);

/// Truncates to the start of the containing hour / day.
TimeMs TruncateToHour(TimeMs t);
TimeMs TruncateToDay(TimeMs t);

/// Formats the per-category, per-hour warehouse partition path fragment the
/// paper describes: "YYYY/MM/DD/HH" (§2).
std::string HourPartitionPath(TimeMs t);

/// "YYYY-MM-DD" for daily partitions and reports.
std::string DateString(TimeMs t);

/// "YYYY-MM-DD HH:MM:SS.mmm" for human-readable traces.
std::string TimestampString(TimeMs t);

/// A byte-rate limiter on simulated time holding at most one second of
/// burst: the broker's produce bound and the aggregator's receive bound.
/// Admits() refills and checks; callers Charge() only what they admit.
class TokenBucket {
 public:
  /// Starts full at `now`.
  void Reset(uint64_t bytes_per_sec, TimeMs now) {
    rate_ = static_cast<double>(bytes_per_sec);
    tokens_ = rate_;
    last_refill_ = now;
  }
  /// Refills for the time since the last call, then reports whether
  /// `cost` bytes fit.
  bool Admits(uint64_t cost, TimeMs now) {
    const double elapsed_ms = static_cast<double>(now - last_refill_);
    tokens_ = std::min(rate_, tokens_ + rate_ * elapsed_ms / 1000.0);
    last_refill_ = now;
    return tokens_ >= static_cast<double>(cost);
  }
  void Charge(uint64_t cost) { tokens_ -= static_cast<double>(cost); }

 private:
  double rate_ = 0;
  double tokens_ = 0;
  TimeMs last_refill_ = 0;
};

}  // namespace unilog

#endif  // UNILOG_COMMON_SIM_TIME_H_

/**
 * @file
 * Atomic whole-file writes: the one temp+rename commit every producer
 * of a single-file artifact uses -- the v2 journals and their
 * fsck/merge rewrites, telemetry series, trace-arena spills and bench
 * JSON baselines. A crash or interruption mid-write can never leave a
 * torn file at the target path -- either the old contents survive or
 * the new contents are fully committed.
 */

#ifndef SPEC17_UTIL_ATOMIC_FILE_HH_
#define SPEC17_UTIL_ATOMIC_FILE_HH_

#include <string>

namespace spec17 {

/**
 * Writes @p contents to @p path atomically: the bytes go to
 * `path + ".tmp"`, are flushed and checked, and the temp file is then
 * renamed over @p path (an atomic replacement on POSIX filesystems).
 * On any failure the temp file is removed, the target is left
 * untouched, and @p error names the reason; warning about it is the
 * caller's decision.
 *
 * @return true when the file was fully committed.
 */
bool writeFileAtomic(const std::string &path, const std::string &contents,
                     std::string &error);

} // namespace spec17

#endif // SPEC17_UTIL_ATOMIC_FILE_HH_

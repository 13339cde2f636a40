#!/usr/bin/env python3
"""Project-specific lint rules that clang-tidy cannot express.

Rules (all scoped to library code under src/ unless noted):

  nodiscard        Every function declaration in a src/ header returning
                   Status or StatusOr<...> carries [[nodiscard]], either on
                   the same line or on the line immediately above.
                   (src/util/status.h is exempt: both classes are declared
                   class-level [[nodiscard]], which covers every factory.)
  void-cast        No C-style `(void)expr` discards. They silently swallow
                   [[nodiscard]] values; use the value or redesign the API.
  header-guard     Headers use the canonical guard VREC_<DIR>_<FILE>_H_.
  iostream         No std::cout/std::cerr in library code — the library
                   reports through Status; binaries under tools/ own I/O.
  libc-random-time No rand()/srand()/time() in library code — randomized
                   components take seeded std::mt19937, timing goes
                   through util::Stopwatch.
  last-timing      Recommender::last_timing() was removed (it was racy
                   under concurrent queries); the name must not come back.
                   Use the QueryTiming out-parameter of Recommend*() or the
                   per-query timing RecommendBatch returns.
  raw-io           No raw POSIX socket/file calls (send/recv/read/write)
                   in library code — all byte I/O goes through the
                   EINTR-safe helpers in src/util/net.h, which that file
                   alone may implement.
  raw-mutex        No std::mutex / std::lock_guard / std::unique_lock /
                   std::condition_variable (or their timed/shared/scoped
                   variants) in library code — locking goes through the
                   annotated vrec::util types in src/util/sync.h (which
                   alone wraps the std primitives), so Clang's thread
                   safety analysis (-DVREC_TSA=ON) sees every acquisition.
                   Bare `#include <mutex>` / `#include <condition_variable>`
                   lines are flagged too; std::once_flag/std::call_once
                   remain allowed — NOLINT the include and say so.
  raw-file-io      No raw file-layer calls (fopen/fdopen/open/mmap/munmap)
                   in library code outside src/io/ — file bytes enter the
                   engine through the archive/snapshot readers and
                   io::MappedFile, so checksum verification, EINTR
                   handling, and mapping lifetime live in one audited
                   place. Stream-class methods (`in.open(...)`) and the
                   std::{i,o}fstream types remain allowed.
  raw-scratch      No raw `new T[...]` / malloc / calloc / realloc in the
                   scoring kernels (src/signature/, src/social/) — per-query
                   scratch goes through util::Arena / ArenaVector (or a
                   plain std container for owned state), so per-query
                   memory has one allocation policy (the thread arena,
                   reset once per query) and nothing leaks on early
                   return.

Any rule can be silenced per line with `// NOLINT(vrec-<rule>)`.

Usage:
  tools/vrec_lint.py FILE...     lint the given files
  tools/vrec_lint.py --self-test run the embedded regression snippets
Exit status is 0 when clean, 1 when violations were found.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Declaration of a Status/StatusOr-returning function. Anchored to the line
# start so expressions (`return Status::Ok();`) and initialized locals
# (`Status s = ...;`) do not match; the `(` with no `=` before it keeps
# member variables out.
_STATUS_DECL = re.compile(
    r"^\s*(?:static\s+|virtual\s+|explicit\s+|friend\s+)*"
    r"(?:vrec::)?(?:util::)?(?:Status|StatusOr<[^;=]*)\s+\w+\s*\("
)
_NODISCARD = "[[nodiscard]]"
_VOID_CAST = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_]")
_IOSTREAM = re.compile(r"std::c(out|err)\b")
_LIBC_RANDOM_TIME = re.compile(r"(?<![\w:])(?:std::)?(?:s?rand|time)\s*\(")
_LAST_TIMING = re.compile(r"\blast_timing\s*\(")
# Bare POSIX I/O identifiers. The lookbehind keeps out method calls
# (.read / ->write), qualified names (std::, util::) and longer identifiers
# (fwrite, pread, ReadFull).
_RAW_IO = re.compile(r"(?<![\w:.>])(?:send|recv|read|write)\s*\(")
# Unannotated standard locking vocabulary: the types Clang's thread safety
# analysis cannot see through, and the headers that provide them. Matching
# `std::` + name (not the bare names) keeps vrec::util::Mutex and prose out;
# once_flag/call_once are deliberately absent (they are init, not locking).
_RAW_MUTEX = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable(?:_any)?)\b"
    r"|^\s*#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
)
# Raw file-layer calls. The lookbehind keeps out method calls (in.open),
# qualified names (MappedFile::Open resolves as `Open` after `::` — also
# excluded), and longer identifiers (fdopendir, popen_wrapper); matching
# the bare lowercase names keeps io::MappedFile::Open and prose out.
_RAW_FILE_IO = re.compile(
    r"(?<![\w:.>])(?:fopen|fdopen|freopen|open|openat|creat|mmap|munmap)"
    r"\s*\("
)
# Raw scratch allocation in kernel code: array-new of any type, or the libc
# allocation trio. The lookbehind keeps out methods (.malloc), qualified
# names, and longer identifiers (my_malloc); `reallocate(` never matches
# because the `(` must follow the bare name directly.
_RAW_SCRATCH = re.compile(
    r"\bnew\s+[A-Za-z_][\w:<>,\s]*\["
    r"|(?<![\w:.>])(?:std::)?(?:malloc|calloc|realloc)\s*\("
)
_NOLINT = re.compile(r"//\s*NOLINT\(([^)]*)\)")

# The one place allowed to touch raw file descriptors: the EINTR-safe
# helper layer itself.
_RAW_IO_ALLOWED = {
    "src/util/net.h",
    "src/util/net.cc",
}

# The one place allowed to wrap the std locking primitives: the annotated
# Mutex/MutexLock/CondVar layer itself.
_RAW_MUTEX_ALLOWED = {
    "src/util/sync.h",
    "src/util/sync.cc",
}

# The one subtree allowed to touch the raw file layer: the archive /
# snapshot / mapped-file readers and writers.
_RAW_FILE_IO_ALLOWED_PREFIX = "src/io/"


def _strip_comments_and_strings(line):
    """Blanks out string/char literals and trailing // comments.

    Crude (no multi-line awareness) but sufficient: the rules target
    identifiers, and the tree's style keeps literals on one line.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                out.append(" ")
                if line[i] == "\\":
                    i += 1
                i += 1
            if i < n:
                out.append(quote)
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def _suppressed(line, rule):
    m = _NOLINT.search(line)
    return m is not None and ("vrec-" + rule) in m.group(1)


def _expected_guard(rel_path):
    parts = rel_path.parts[1:] if rel_path.parts[0] == "src" else rel_path.parts
    stem = "_".join(parts)
    return "VREC_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_"


def lint_file(rel_path, lines):
    """Lints one file; returns a list of (path, line_no, rule, message)."""
    rel = rel_path.as_posix()
    in_src = rel.startswith("src/")
    is_header = rel.endswith(".h")
    findings = []

    def report(line_no, rule, message):
        findings.append((rel, line_no, rule, message))

    if in_src and is_header:
        guard = _expected_guard(rel_path)
        text = "\n".join(lines)
        if f"#ifndef {guard}" not in text or f"#define {guard}" not in text:
            report(1, "header-guard", f"expected header guard {guard}")

    prev_code = ""
    for line_no, raw in enumerate(lines, start=1):
        code = _strip_comments_and_strings(raw)

        if in_src and is_header and rel != "src/util/status.h":
            if _STATUS_DECL.match(code) and not _suppressed(raw, "nodiscard"):
                if (_NODISCARD not in code
                        and prev_code.strip() != _NODISCARD):
                    report(line_no, "nodiscard",
                           "Status/StatusOr-returning declaration lacks "
                           "[[nodiscard]]")

        if in_src:
            if _VOID_CAST.search(code) and not _suppressed(raw, "void-cast"):
                report(line_no, "void-cast",
                       "C-style (void) discard; use the value or drop it "
                       "from the API")
            if _IOSTREAM.search(code) and not _suppressed(raw, "iostream"):
                report(line_no, "iostream",
                       "std::cout/std::cerr in library code; report through "
                       "Status")
            if (_LIBC_RANDOM_TIME.search(code)
                    and not _suppressed(raw, "libc-random-time")):
                report(line_no, "libc-random-time",
                       "libc rand()/time() in library code; use seeded "
                       "std::mt19937 / util::Stopwatch")
            if (rel not in _RAW_IO_ALLOWED and _RAW_IO.search(code)
                    and not _suppressed(raw, "raw-io")):
                report(line_no, "raw-io",
                       "raw send/recv/read/write in library code; use the "
                       "EINTR-safe helpers in src/util/net.h")
            if (rel not in _RAW_MUTEX_ALLOWED and _RAW_MUTEX.search(code)
                    and not _suppressed(raw, "raw-mutex")):
                report(line_no, "raw-mutex",
                       "raw std locking primitive in library code; use the "
                       "annotated vrec::util types in src/util/sync.h so "
                       "thread safety analysis sees the acquisition")
            if (not rel.startswith(_RAW_FILE_IO_ALLOWED_PREFIX)
                    and _RAW_FILE_IO.search(code)
                    and not _suppressed(raw, "raw-file-io")):
                report(line_no, "raw-file-io",
                       "raw fopen/open/mmap in library code; file bytes go "
                       "through the readers in src/io/ (io::MappedFile, "
                       "archive, snapshot)")
            if (rel.startswith(("src/signature/", "src/social/"))
                    and _RAW_SCRATCH.search(code)
                    and not _suppressed(raw, "raw-scratch")):
                report(line_no, "raw-scratch",
                       "raw new[]/malloc scratch in kernel code; use "
                       "util::Arena / ArenaVector (src/util/arena.h) so "
                       "per-query scratch keeps one allocation policy")

        if _LAST_TIMING.search(code) and not _suppressed(raw, "last-timing"):
            report(line_no, "last-timing",
                   "last_timing() was removed; pass a QueryTiming "
                   "out-parameter to Recommend*()")

        if code.strip():
            prev_code = code
    return findings


def _relativize(path):
    p = Path(path).resolve()
    try:
        return p.relative_to(REPO_ROOT)
    except ValueError:
        return Path(path)


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    findings = []
    for arg in argv[1:]:
        path = Path(arg)
        if not path.is_file():
            print(f"vrec_lint: no such file: {arg}", file=sys.stderr)
            return 2
        lines = path.read_text(encoding="utf-8").splitlines()
        findings.extend(lint_file(_relativize(path), lines))
    for rel, line_no, rule, message in findings:
        print(f"{rel}:{line_no}: [vrec-{rule}] {message}")
    if findings:
        print(f"vrec_lint: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    return 0


# --- Self test -------------------------------------------------------------

_SELF_TEST_CASES = [
    # (virtual path, source, expected rules in line order)
    (
        "src/fake/widget.h",
        """\
#ifndef VREC_FAKE_WIDGET_H_
#define VREC_FAKE_WIDGET_H_
namespace vrec::fake {
class Widget {
 public:
  [[nodiscard]]
  Status Check() const;
  [[nodiscard]] StatusOr<int> Count() const;
  Status Install();
  static StatusOr<Widget> Make();
  Status Legacy();  // NOLINT(vrec-nodiscard)
 private:
  Status last_;
};
}  // namespace vrec::fake
#endif  // VREC_FAKE_WIDGET_H_
""",
        ["nodiscard", "nodiscard"],
    ),
    (
        "src/fake/bad_guard.h",
        """\
#ifndef WIDGET_H
#define WIDGET_H
#endif  // WIDGET_H
""",
        ["header-guard"],
    ),
    (
        "src/fake/impl.cc",
        """\
void F(int weight) {
  (void)weight;
  std::cout << "hi";
  int seed = rand();
  (void)seed;  // NOLINT(vrec-void-cast)
  double t = time(nullptr);
  // a comment mentioning rand() and std::cout is fine
  const char* s = "rand() inside a string is fine";
  Timing(t);
  my_runtime(t);
}
""",
        ["void-cast", "iostream", "libc-random-time", "libc-random-time"],
    ),
    (
        "tests/fake_test.cc",
        """\
TEST(T, Old) {
  EXPECT_GT(rec.last_timing().total_ms, 0.0);
  EXPECT_GT(rec.last_timing().total_ms, 0.0);  // NOLINT(vrec-last-timing)
}
""",
        ["last-timing"],
    ),
    (
        # The accessor was removed; even its old home may not redeclare it.
        "src/core/recommender.h",
        """\
#ifndef VREC_CORE_RECOMMENDER_H_
#define VREC_CORE_RECOMMENDER_H_
QueryTiming last_timing() const;
#endif  // VREC_CORE_RECOMMENDER_H_
""",
        ["last-timing"],
    ),
    (
        "src/fake/io_user.cc",
        """\
void G(int fd, uint8_t* buf, size_t n) {
  read(fd, buf, n);
  send(fd, buf, n, 0);  // NOLINT(vrec-raw-io)
  reader.read(buf, n);
  stream->write(buf, n);
  util::ReadFull(fd, buf, n);
  pread(fd, buf, n, 0);
  // a comment about read() is fine
}
""",
        ["raw-io"],
    ),
    (
        "src/util/net.cc",
        """\
ssize_t n = read(fd, buf, len);
""",
        [],
    ),
    (
        "src/fake/filey.cc",
        """\
void F(const char* path) {
  FILE* f = fopen(path, "rb");
  int fd = open(path, O_RDONLY);
  void* p = mmap(nullptr, n, PROT_READ, MAP_PRIVATE, fd, 0);  // NOLINT(vrec-raw-file-io)
  munmap(p, n);
  in.open(path);
  auto m = io::MappedFile::Open(path);
  fdopendir(fd);
  // fopen() in a comment is fine
}
""",
        ["raw-file-io", "raw-file-io", "raw-file-io"],
    ),
    (
        # The file-reader layer itself may touch the raw file API.
        "src/io/mapped_file.cc",
        """\
int fd = open(path.c_str(), O_RDONLY);
void* p = mmap(nullptr, n, PROT_READ, MAP_PRIVATE, fd, 0);
""",
        [],
    ),
    (
        "src/fake/locky.cc",
        """\
#include <mutex>
#include <condition_variable>
#include <mutex>  // NOLINT(vrec-raw-mutex): std::call_once only
void H() {
  std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::unique_lock<std::mutex> ul(mu);  // NOLINT(vrec-raw-mutex)
  std::condition_variable cv;
  std::shared_mutex sm;
  vrec::util::Mutex ok;
  // std::mutex in a comment is fine
  const char* s = "std::mutex in a string is fine";
}
""",
        ["raw-mutex", "raw-mutex", "raw-mutex", "raw-mutex", "raw-mutex",
         "raw-mutex"],
    ),
    (
        "src/signature/scratchy.cc",
        """\
void K(size_t n) {
  double* buf = new double[n];
  auto* views = new PreparedView[n];  // NOLINT(vrec-raw-scratch)
  void* p = malloc(n);
  void* q = std::calloc(n, 8);
  p = realloc(p, 2 * n);
  my_malloc(n);
  allocator.deallocate(ptr, n);
  auto w = new Widget();
  // new double[n] in a comment is fine
}
""",
        ["raw-scratch", "raw-scratch", "raw-scratch", "raw-scratch"],
    ),
    (
        # The rule is scoped to the scoring kernels; other library code is
        # governed by review, not the lint.
        "src/core/other.cc",
        """\
double* buf = new double[4];
""",
        [],
    ),
    (
        # The annotated wrapper layer itself may touch the std primitives.
        "src/util/sync.h",
        """\
#ifndef VREC_UTIL_SYNC_H_
#define VREC_UTIL_SYNC_H_
#include <mutex>
std::mutex mu_;
#endif  // VREC_UTIL_SYNC_H_
""",
        [],
    ),
]


def self_test():
    failures = 0
    for path, source, expected in _SELF_TEST_CASES:
        got = [rule for _, _, rule, _ in
               lint_file(Path(path), source.splitlines())]
        if got != expected:
            failures += 1
            print(f"self-test FAILED for {path}: expected {expected}, "
                  f"got {got}", file=sys.stderr)
    if failures:
        return 1
    print(f"vrec_lint self-test: {len(_SELF_TEST_CASES)} cases OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

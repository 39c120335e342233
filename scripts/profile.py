#!/usr/bin/env python3
"""Sample a command's user-space stacks on CPU 0, with the standard library only.

Usage:
    scripts/profile.py [--freq HZ] [--top N] [--focus REGEX] [--depth N] -- CMD [ARG...]

The command runs pinned to CPU 0. A `perf_event_open` CPU-clock event
samples its instruction pointer, thread id and user call chain, in every
thread and child it starts. The report lists the hottest functions by
self samples. `--focus REGEX` then takes the samples whose stack holds a
frame matching REGEX and groups them by the frames that called it.

Callers are only as good as the frame-pointer chain. For `--focus`, build
what you profile in a separate target directory with frame pointers, so
the normal build keeps its code generation, for example:

    RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=target/fp \\
        cargo build --release --manifest-path crates/bench/src/bin/suite/Cargo.toml
    scripts/profile.py --focus lock_contended -- \\
        target/fp/release/suite --workload pingpong_64B --seconds 3 --trace 0

No `perf` binary is needed. The kernel must allow unprivileged user-space
sampling of one's own processes: `/proc/sys/kernel/perf_event_paranoid`
at 2 or lower. Symbols come from `/proc/PID/maps`, `readelf -lW` (the
LOAD segments, to undo the load bias) and `nm -C`. A hit in a library
without symbols is reported as the library's name plus an offset.
"""

import argparse
import bisect
import collections
import ctypes
import mmap
import os
import platform
import re
import struct
import subprocess
import sys
import time

PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_CPU_CLOCK = 0
SAMPLE_IP, SAMPLE_TID, SAMPLE_CALLCHAIN = 1 << 0, 1 << 1, 1 << 5
# perf_event_attr flag bits.
DISABLED, INHERIT, EXCLUDE_KERNEL, EXCLUDE_HV = 1 << 0, 1 << 1, 1 << 5, 1 << 6
FREQ, ENABLE_ON_EXEC, EXCLUDE_CALLCHAIN_KERNEL = 1 << 10, 1 << 12, 1 << 21
PERF_FLAG_FD_CLOEXEC = 1 << 3
RECORD_LOST, RECORD_SAMPLE = 2, 9
# Call-chain entries at or above this are context markers, not addresses.
PERF_CONTEXT_MAX = (1 << 64) - 4095
ATTR_SIZE = 112  # PERF_ATTR_SIZE_VER5
DATA_PAGES = 256
SYS_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}


def perf_open(pid, freq):
    nr = SYS_PERF_EVENT_OPEN.get(platform.machine())
    if nr is None:
        sys.exit(f"profile.py: no perf_event_open number for {platform.machine()}")
    attr = bytearray(ATTR_SIZE)
    flags = (DISABLED | INHERIT | EXCLUDE_KERNEL | EXCLUDE_HV | FREQ
             | ENABLE_ON_EXEC | EXCLUDE_CALLCHAIN_KERNEL)
    struct.pack_into("<IIQQQQQ", attr, 0, PERF_TYPE_SOFTWARE, ATTR_SIZE,
                     PERF_COUNT_SW_CPU_CLOCK, freq,
                     SAMPLE_IP | SAMPLE_TID | SAMPLE_CALLCHAIN, 0, flags)
    libc = ctypes.CDLL(None, use_errno=True)
    libc.syscall.restype = ctypes.c_long
    buf = (ctypes.c_char * ATTR_SIZE).from_buffer(attr)
    # An inherited per-task event can only be mmapped per CPU, so the
    # event watches the child on CPU 0, where it is pinned.
    fd = libc.syscall(ctypes.c_long(nr), buf, ctypes.c_int(pid), ctypes.c_int(0),
                      ctypes.c_int(-1), ctypes.c_ulong(PERF_FLAG_FD_CLOEXEC))
    if fd < 0:
        err = ctypes.get_errno()
        sys.exit(f"profile.py: perf_event_open failed: {os.strerror(err)} "
                 "(is /proc/sys/kernel/perf_event_paranoid above 2?)")
    return fd


class Ring:
    """The event's mmapped ring buffer: one metadata page, then data."""

    def __init__(self, fd):
        self.page = mmap.PAGESIZE
        self.size = DATA_PAGES * self.page
        self.mm = mmap.mmap(fd, self.page + self.size, mmap.MAP_SHARED,
                            mmap.PROT_READ | mmap.PROT_WRITE)

    def drain(self):
        """Yields (type, body) for every record written since the last call."""
        head = struct.unpack_from("<Q", self.mm, 1024)[0]
        tail = struct.unpack_from("<Q", self.mm, 1032)[0]
        while tail < head:
            hdr = self.read(tail, 8)
            kind, _misc, size = struct.unpack("<IHH", hdr)
            yield kind, self.read(tail + 8, size - 8)
            tail += size
        struct.pack_into("<Q", self.mm, 1032, tail)

    def read(self, pos, n):
        start = pos % self.size
        end = start + n
        base = self.page
        if end <= self.size:
            return self.mm[base + start:base + end]
        return self.mm[base + start:base + self.size] + self.mm[base:base + end - self.size]


def read_maps(pid):
    """Executable file mappings of `pid`: sorted (start, end, offset, path)."""
    out = []
    try:
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                parts = line.split(None, 5)
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                out.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    except OSError:
        pass
    return sorted(out)


class Elf:
    """One file's LOAD segments and function symbols."""

    def __init__(self, path):
        self.name = os.path.basename(path)
        self.loads = []
        text = run(["readelf", "-lW", path])
        for line in text.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                off, vaddr, filesz = int(f[1], 16), int(f[2], 16), int(f[4], 16)
                self.loads.append((off, vaddr, filesz))
        # A stripped library (libc) keeps only its exported symbols, and
        # most of its code is internal, so a hit there is named by the
        # library, the offset of the export before it, and that export.
        syms = self.nm(path, ["-C"])
        if not syms:
            syms = {a: f"{self.name}+{a:#x} (after {n})"
                    for a, n in self.nm(path, ["-C", "-D"]).items()}
        self.addrs = sorted(syms)
        self.names = [syms[a] for a in self.addrs]

    @staticmethod
    def nm(path, flags):
        syms = {}
        for line in run(["nm", "--defined-only", *flags, path]).splitlines():
            f = line.split(None, 2)
            if len(f) == 3 and f[1] in "tTwWiI":
                syms.setdefault(int(f[0], 16), f[2])
        return syms

    def symbol(self, file_off):
        for off, vaddr, filesz in self.loads:
            if off <= file_off < off + filesz:
                va = file_off - off + vaddr
                i = bisect.bisect_right(self.addrs, va) - 1
                if i >= 0:
                    return self.names[i]
                return f"{self.name}+{va:#x}"
        return f"{self.name}+{file_off:#x}"


def run(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=False).stdout
    except OSError:
        return ""


class Symbolizer:
    def __init__(self):
        self.maps = {}
        self.elves = {}
        self.cache = {}

    def note_pid(self, pid):
        if pid not in self.maps:
            self.maps[pid] = read_maps(pid)

    def __call__(self, pid, ip):
        key = (pid, ip)
        if key not in self.cache:
            self.cache[key] = self.lookup(pid, ip)
        return self.cache[key]

    def lookup(self, pid, ip):
        maps = self.maps.get(pid, [])
        i = bisect.bisect_right(maps, (ip, float("inf"))) - 1
        if i < 0 or not maps[i][0] <= ip < maps[i][1]:
            return f"[unknown {ip:#x}]"
        lo, _hi, off, path = maps[i]
        if not path.startswith("/"):
            return f"{path}+{ip - lo:#x}"  # [vdso] and other anonymous code
        if path not in self.elves:
            self.elves[path] = Elf(path)
        return self.elves[path].symbol(ip - lo + off)


def parse_sample(body):
    ip, pid, tid, nr = struct.unpack_from("<QIIQ", body, 0)
    chain = struct.unpack_from(f"<{nr}Q", body, 24)
    return ip, pid, tid, [a for a in chain if a < PERF_CONTEXT_MAX]


def main():
    ap = argparse.ArgumentParser(
        description="Sample a command's user-space stacks on CPU 0.",
        usage="%(prog)s [options] -- CMD [ARG...]")
    ap.add_argument("--freq", type=int, default=4000, help="samples per second (default 4000)")
    ap.add_argument("--top", type=int, default=25, help="functions to list (default 25)")
    ap.add_argument("--focus", help="group the samples whose stack matches REGEX by their callers")
    ap.add_argument("--depth", type=int, default=3, help="caller frames shown per --focus path (default 3)")
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given")

    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(go_w)
        os.sched_setaffinity(0, {0})
        os.read(go_r, 1)
        try:
            os.execvp(cmd[0], cmd)
        except OSError as e:
            print(f"profile.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            os._exit(127)
    os.close(go_r)
    fd = perf_open(pid, args.freq)
    ring = Ring(fd)
    os.write(go_w, b"x")
    os.close(go_w)

    sym = Symbolizer()
    samples = []
    lost = 0
    status = None

    def drain():
        nonlocal lost
        for kind, body in ring.drain():
            if kind == RECORD_SAMPLE:
                ip, spid, tid, chain = parse_sample(body)
                sym.note_pid(spid)
                samples.append((spid, tid, ip, chain))
            elif kind == RECORD_LOST:
                lost += struct.unpack_from("<QQ", body)[1]

    while status is None:
        time.sleep(0.01)
        drain()
        done, st = os.waitpid(pid, os.WNOHANG)
        if done:
            status = st
    drain()
    os.close(fd)
    report(samples, lost, sym, args)
    sys.exit(os.waitstatus_to_exitcode(status))


def report(samples, lost, sym, args):
    n = len(samples)
    threads = len({(p, t) for p, t, _, _ in samples})
    print(f"\n{n} samples in {threads} threads ({lost} lost)", file=sys.stderr)
    if not n:
        return
    leaf = collections.Counter(sym(p, ip) for p, _, ip, _ in samples)
    print("  self%  function", file=sys.stderr)
    for name, c in leaf.most_common(args.top):
        print(f"{100 * c / n:6.1f}%  {name}", file=sys.stderr)
    if not args.focus:
        return
    focus = re.compile(args.focus)
    paths = collections.Counter()
    for p, _, ip, chain in samples:
        # The chain starts at the sampled IP; return addresses point one
        # past their call instruction, so symbolise `ra - 1`.
        ras = chain[1:] if chain[:1] == [ip] else chain
        frames = [sym(p, ip)] + [sym(p, ra - 1) for ra in ras]
        at = next((i for i, f in enumerate(frames) if focus.search(f)), None)
        if at is None:
            continue
        callers = [f for f in frames[at + 1:] if not focus.search(f)][: args.depth]
        paths[" <- ".join([frames[at], *callers])] += 1
    hit = sum(paths.values())
    print(f"\n--focus {args.focus!r}: {hit} samples ({100 * hit / n:.1f} % of all)",
          file=sys.stderr)
    for path, c in paths.most_common(args.top):
        print(f"{100 * c / max(hit, 1):6.1f}%  {path}", file=sys.stderr)


if __name__ == "__main__":
    main()

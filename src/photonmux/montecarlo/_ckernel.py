"""Build, cache and load the C kernel ``_ckernel.c`` on first use.

The library is compiled with the interpreter's C compiler (sysconfig's
``CC``, else ``cc``) at ``-O2``, and never with ``-ffast-math``, which
would change the comparisons that decide each outcome.  It is cached under
a name keyed by ``importlib.util.source_hash`` of the source and of the
compile command (the compiler and ``CFLAGS``), 16 hex digits, and by the
platform tag, in ``CACHE_DIR`` or, where that is not writable, in the user
cache (``$XDG_CACHE_HOME/photonmux`` or ``~/.cache/photonmux``).  The key
is the import system's own SipHash, already loaded, so finding the library
loads no hash library; it is salted with the interpreter's bytecode magic
number, so each Python version builds its own library.  Each build writes
a temporary file and renames it into place, so a reader never sees a
partial library.  A build into ``CACHE_DIR`` then removes the other kernel
builds for the platform there; the user cache, which other checkouts may
share, keeps every build.  So two interpreters with different ``CC`` or
Python versions that share one checkout rebuild the kernel each time they
alternate.  ctypes releases the interpreter lock for the call, so the
kernel runs in parallel on the drain loops of ``simulate``.

This module loads with ``photonmux.montecarlo``, which the package imports
on first access to one of its names, as it does ``optimize`` and
``sweeps``.  It imports ``tempfile`` and the compiler's modules only where
it builds the kernel or names the compile command.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_ckernel.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
CFLAGS = ("-O2", "-shared", "-fPIC")

_lock = threading.Lock()
# What ``load`` returns, set once under the lock.
_loaded = None


class BuildError(Exception):
    """The kernel could not be built: the compiler's first error line, or no
    writable cache directory."""


def _user_cache() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "photonmux"


def compiler() -> list:
    """The compiler and its flags, without the source and output paths."""
    # Imported on first use, so that importing photonmux does not pay for them.
    import shlex
    import sysconfig

    return [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *CFLAGS]


def compile_library(output: Path) -> None:
    """Compile ``SOURCE`` into the shared library ``output``."""
    import subprocess

    command = compiler()
    proc = subprocess.run([*command, "-o", str(output), str(SOURCE)],
                          capture_output=True, text=True)
    if proc.returncode:
        lines = [line for line in proc.stderr.splitlines() if line.strip()]
        errors = [line for line in lines if "error" in line]
        status = f"{command[0]} exited with status {proc.returncode}"
        raise BuildError((errors or lines or [status])[0])


def _prune(keep: Path, platform: str) -> None:
    """Remove the kernel builds for ``platform`` in ``CACHE_DIR`` other than ``keep``."""
    for stale in CACHE_DIR.glob(f"_ckernel-*-{platform}.so"):
        if stale != keep:
            try:
                stale.unlink()
            except OSError:
                pass  # gone already, or not ours to remove


def _library() -> Path:
    """Path of the built library, compiling it into the first writable cache."""
    import sysconfig

    key = importlib.util.source_hash(SOURCE.read_bytes() + "\0".join(compiler()).encode())
    platform = sysconfig.get_platform()
    name = f"_ckernel-{key.hex()}-{platform}.so"
    for directory in (CACHE_DIR, _user_cache()):
        path = directory / name
        if path.exists():
            return path
        import tempfile

        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckernel-", suffix=".so")
        except OSError:
            continue  # not writable: try the next cache
        os.close(fd)
        try:
            compile_library(Path(tmp))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if directory == CACHE_DIR:
            _prune(path, platform)
        return path
    raise BuildError(f"no writable cache directory for the C kernel ({CACHE_DIR}, {_user_cache()})")


def _bind(path: Path):
    """``bind`` of the library at ``path``, with the kernel's argument types declared."""
    fn = ctypes.CDLL(str(path)).run_counter
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64,
                   ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_int64, ctypes.c_void_p]

    def bind(seed: int, tables, counts: np.ndarray):
        """``run(start, stop)``, which adds the surviving counts of trials
        [start, stop) to ``counts`` and returns the number of Philox blocks
        it computed.

        The checks that guard the kernel's reads and writes run here, once:
        the tables must be C-contiguous float64 and ``counts`` a writable
        C-contiguous int64 array, all sized for one pair-count cap, or
        ``ValueError`` is raised.  ``run`` then passes the arguments as
        ctypes values converted here, the arrays as pointers that hold a
        reference to them.
        """
        arrays = (tables.pair_cdf, tables.herald_prob, tables.survival_cdf)
        if not (all(a.dtype == np.float64 and a.flags.c_contiguous for a in arrays)
                and counts.dtype == np.int64 and counts.flags.c_contiguous
                and counts.flags.writeable):
            raise ValueError("the C kernel takes C-contiguous float64 sampling tables "
                             "and a writable C-contiguous int64 counts array")
        side = tables.pair_cdf.size
        if not (tables.herald_prob.size == counts.size == side
                and tables.survival_cdf.shape == (side, side)):
            raise ValueError("sampling tables and counts must share one pair-count cap")
        key = ctypes.c_uint64(seed)
        args = (ctypes.c_uint64(tables.n_windows), ctypes.c_double(tables.p_dark),
                *(a.ctypes.data_as(ctypes.c_void_p) for a in arrays), ctypes.c_int64(side),
                counts.ctypes.data_as(ctypes.c_void_p))

        def run(start: int, stop: int) -> int:
            return fn(key, start, stop, *args)

        return run

    return bind


def load():
    """(bind, detail), building the kernel on the first call.

    ``bind(seed, tables, counts)`` checks its arguments and returns the
    kernel's ``run(start, stop)``.  ``bind`` is None when the kernel cannot
    be built or loaded, and ``detail`` is then the reason; else it says
    where the library was loaded from.  A failed build raises nothing.
    """
    global _loaded
    with _lock:
        if _loaded is None:
            try:
                path = _library()
                _loaded = (_bind(path), f"loaded from {path}")
            except (BuildError, OSError) as exc:
                _loaded = (None, str(exc))
        return _loaded

"""The compiled library of chemoshock: `_stages.c` built, cached and loaded.

`_stages.c` holds the compiled step of `solver._advance` and the snapshot
printer of `core.write_snapshot`.  The first `_load_stages()` on a machine
compiles it with $CC (default cc) into a private per-user cache,
${XDG_CACHE_HOME:-~/.cache}/chemoshock; later processes load the cached
library through ctypes.  When no compiler or cache is usable it returns None,
and the numpy stages and the Python snapshot writer run instead.

It owns the numbers `_stages.c` shares with Python, `_A_MAX` to `_VALUE_BYTES`
below: `solver` and `core` import them, and `_build_stages` passes each to the
compiler as a -D macro named without the underscore, so the C defines none.

Importing this module builds and loads nothing: the solver loads the library
when it builds a workspace, and `write_snapshot` when it writes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import os

import numpy as np

# the largest a whose pivots run their recurrence (`solver._ldl_pivots`)
_A_MAX = 100.0
# log(eps/4): the closed-form pivots past the head where q**i < eps/4 equal
# d_plus to the last bit
_LOG_QUARTER_EPS = -37.42994775023705
# a block of the solve reaches as far past its nonzero right-hand side as δ
# takes to decay by 2**-_BLOCK_BITS (`solver._block_margin`)
_BLOCK_BITS = 64
# an increment δ_i smaller than _DEAD_BAND*|u_i|, eight units of roundoff of
# u_i, is dropped, and u_i kept (`solver._numpy_step`)
_DEAD_BAND = 2.0**-49
# The decimal exponents s = 16 - k of the powers 10**s that the printer scales
# by, for k = floor(log10|x|) from -324 (the least subnormal) to 308 (DBL_MAX).
_POW10_MIN, _POW10_MAX = 16 - 308, 16 + 324
# Buffer bytes per value for the compiled printer: at most 24 for the text
# ('-1.2345678901234567e-308'), one for the space or newline after it, and
# one for the NUL of the C library's snprintf.
_VALUE_BYTES = 26

_STAGES_SOURCE = os.path.join(os.path.dirname(__file__), "_stages.c")
# IEEE operations in source order (no fused multiply-add, no -ffast-math) keep
# the compiled step byte-identical to the numpy stages; no -march, so one
# library suits every CPU of the machine's architecture.
_STAGES_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")


def _stages_cache() -> str:
    """${XDG_CACHE_HOME:-~/.cache}/chemoshock, made mode 0700 if missing.

    A shared library is loaded from it, so a directory that another user owns
    or may write to is refused (OSError)."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # the XDG rule: a relative path is ignored
        root = os.path.join(os.path.expanduser("~"), ".cache")
    cache = os.path.join(root, "chemoshock")
    os.makedirs(cache, mode=0o700, exist_ok=True)
    st = os.stat(cache)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{cache} is not private to this user")
    return cache


def _build_stages(cache: str) -> str:
    """The path of `_stages.c` compiled by $CC (default cc) into `cache`.

    The file name hashes the source, the compiler command and flags, and the
    compiler executable's path, size and modification time, which stand in
    for its version: so a cached library loads without starting a process,
    and a changed source or compiler builds anew.  A finished build is
    renamed into place, so concurrent runs never load half a library, and the
    other libraries in `cache`, stale now, are deleted.  A failed build leaves
    `stages-<key>.failed`, holding the compiler's stderr, and is not retried
    while that file exists.  Raises OSError when there is no compiler or the
    build fails, now or before."""
    import shutil

    cc = (os.environ.get("CC") or "cc").split()
    exe = shutil.which(cc[0]) if cc else None
    if exe is None:
        raise FileNotFoundError(f"no C compiler {cc[0] if cc else ''!r}")
    exe = os.path.realpath(exe)
    st = os.stat(exe)
    with open(_STAGES_SOURCE, "rb") as fh:
        source = fh.read()
    shared = {"A_MAX": _A_MAX, "LOG_QUARTER_EPS": _LOG_QUARTER_EPS, "BLOCK_BITS": _BLOCK_BITS,
              "DEAD_BAND": _DEAD_BAND, "POW10_MIN": _POW10_MIN, "POW10_MAX": _POW10_MAX,
              "VALUE_BYTES": _VALUE_BYTES}
    # a float as its exact hexadecimal literal, an int in decimal
    flags = (*_STAGES_CFLAGS, *(f"-D{name}=({x.hex() if isinstance(x, float) else x})"
                                for name, x in shared.items()))
    build = (cc, flags, exe, st.st_size, st.st_mtime_ns, os.uname().machine)
    # the deterministic 64-bit hash that hash-based .pyc files use
    key = importlib.util.source_hash(source + repr(build).encode()).hex()
    lib = os.path.join(cache, f"stages-{key}.so")
    if os.path.exists(lib):
        return lib
    failed = os.path.join(cache, f"stages-{key}.failed")
    if os.path.exists(failed):
        raise OSError(f"{_STAGES_SOURCE} did not compile before; see {failed}")
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run([*cc, *flags, "-o", tmp, _STAGES_SOURCE],
                       capture_output=True, check=True, timeout=300)
        os.replace(tmp, lib)
    except subprocess.SubprocessError as exc:
        with open(failed, "wb") as fh:
            fh.write(exc.stderr or b"")
        raise OSError(f"cannot compile {_STAGES_SOURCE}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for name in os.listdir(cache):
        if name.startswith("stages-") and name.endswith(".so") and name != os.path.basename(lib):
            with contextlib.suppress(FileNotFoundError):  # a concurrent build deleted it
                os.unlink(os.path.join(cache, name))
    return lib


@functools.cache
def _load_stages():
    """The loops of `_stages.c` as a ctypes library, compiled on the first call
    on a machine (`_build_stages`); None when no compiler or cache is usable,
    and the numpy stages and the Python snapshot writer run instead."""
    import ctypes

    try:
        lib = ctypes.CDLL(_build_stages(_stages_cache()))
    except OSError:
        return None
    ptr, n, real = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    functions = [
        ("imex_step", None,
         (ptr, ptr, n, real, real, real, ptr, ptr, real, real, ptr, ptr, ptr, ptr)),
    ]
    if hasattr(lib, "format_rows"):  # the printer, built where C has 128-bit integers
        functions += [
            ("format_value", ctypes.c_int, (real, ptr, ptr)),
            ("format_rows", n, (ptr, ptr, ptr, ptr, n, ptr, ptr)),
        ]
    for name, restype, argtypes in functions:
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


def _address(x: np.ndarray, size: int) -> int:
    """The data address of x, which must be a contiguous float64 array of
    `size` entries for a compiled loop."""
    iface = x.__array_interface__
    if iface["typestr"] != "<f8" or iface["strides"] is not None or iface["shape"] != (size,):
        raise ValueError(f"a compiled loop takes {size} contiguous float64 values")
    return iface["data"][0]


@functools.cache
def _pow10_table():
    """10**s for s in [_POW10_MIN, _POW10_MAX] as the printer's `struct
    pow10` entries (hi, lo, q): P = hi*2**64 + lo is 10**s * 2**-q truncated
    to 128 bits, so 2**127 <= P < 2**128.  Built once per process from
    Python's exact integers."""
    import ctypes

    words = []
    for s in range(_POW10_MIN, _POW10_MAX + 1):
        if s >= 0:
            p = 10**s
            q = p.bit_length() - 128
            p = p >> q if q >= 0 else p << -q
        else:  # floor(2**-q / 10**-s), which 2**-q / 10**-s never equals
            d = 10**-s
            q = -127 - d.bit_length()
            p = (1 << -q) // d
        words += (p >> 64, p & (2**64 - 1), q & (2**64 - 1))
    return (ctypes.c_uint64 * len(words))(*words)


def snapshot_printer():
    """(format_rows, table) of the compiled snapshot printer, or None when the
    library did not load or exports no printer (a C without 128-bit integers)."""
    lib = _load_stages()
    if lib is None or not hasattr(lib, "format_rows"):
        return None
    return lib.format_rows, _pow10_table()

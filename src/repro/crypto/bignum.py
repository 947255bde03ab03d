"""Modular exponentiation in the libcrypto that ``hashlib`` already loads.

Miller–Rabin witnesses and CRT signatures are most of what key
generation and signing cost, and CPython's ``pow`` is about ten times
slower than OpenSSL's ``BN_mod_exp`` at the sizes the study mints (886
against 80 µs for one 512-bit power, CPython 3.11 on a 2-vCPU host).
:func:`powmod` returns exactly ``pow(base, exponent, modulus)`` but
computes it in libcrypto, reached through ``ctypes`` in the library
that Python's own ``_hashlib`` extension is linked against: ``dlsym``
on that handle also searches the libraries it depends on, so no
library is added and no soname is guessed.

Builtin ``pow`` is the fallback, for the life of the process, wherever
libcrypto cannot be reached that way, and for any argument outside the
domain ``BN_mod_exp`` is called with (an odd modulus above 1, a base in
``[0, modulus)``, a non-negative exponent).  ``ctypes`` is imported on
the first call, so a process that never exponentiates never loads it.
No native state outlives a call except the resolved function pointers,
so threads and forked workers are safe.
"""

from __future__ import annotations

from types import SimpleNamespace

# None until the first call; then the resolved entry points, or False
# where libcrypto cannot be reached (builtin pow from then on).
_libcrypto: SimpleNamespace | bool | None = None


def _load() -> SimpleNamespace | bool:
    """Resolve the ``BN_*`` entry points once per process."""
    global _libcrypto
    try:
        import ctypes

        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        bn = ctypes.c_void_p
        prototypes = {
            "BN_CTX_new": (bn, []),
            "BN_CTX_free": (None, [bn]),
            "BN_new": (bn, []),
            "BN_free": (None, [bn]),
            "BN_bin2bn": (bn, [ctypes.c_char_p, ctypes.c_int, bn]),
            "BN_bn2binpad": (ctypes.c_int, [bn, ctypes.c_char_p, ctypes.c_int]),
            "BN_mod_exp": (ctypes.c_int, [bn, bn, bn, bn, bn]),
        }
        functions = {}
        for name, (restype, argtypes) in prototypes.items():
            function = getattr(lib, name)
            function.restype = restype
            function.argtypes = argtypes
            functions[name] = function
        _libcrypto = SimpleNamespace(buffer=ctypes.create_string_buffer, **functions)
    except (ImportError, AttributeError, OSError):
        _libcrypto = False
    return _libcrypto


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``, computed by libcrypto's ``BN_mod_exp``."""
    lib = _libcrypto if _libcrypto is not None else _load()
    if not (
        lib
        and isinstance(base, int)
        and isinstance(exponent, int)
        and isinstance(modulus, int)
        and modulus > 1
        and modulus & 1
        and 0 <= base < modulus
        and exponent >= 0
    ):
        return pow(base, exponent, modulus)
    size = (modulus.bit_length() + 7) // 8
    exponent_size = (exponent.bit_length() + 7) // 8
    ctx = result = a = p = m = None
    try:
        ctx = lib.BN_CTX_new()
        result = lib.BN_new()
        a = lib.BN_bin2bn(base.to_bytes(size, "big"), size, None)
        p = lib.BN_bin2bn(exponent.to_bytes(exponent_size, "big"), exponent_size, None)
        m = lib.BN_bin2bn(modulus.to_bytes(size, "big"), size, None)
        if not (ctx and result and a and p and m):
            raise MemoryError("libcrypto could not allocate a BIGNUM")
        if not lib.BN_mod_exp(result, a, p, m, ctx):
            raise ArithmeticError("BN_mod_exp failed")
        out = lib.buffer(size)
        if lib.BN_bn2binpad(result, out, size) != size:
            raise ArithmeticError("BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")
    finally:
        # BN_free and BN_CTX_free ignore NULL.
        for number in (result, a, p, m):
            lib.BN_free(number)
        lib.BN_CTX_free(ctx)

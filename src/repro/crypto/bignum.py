"""Big-integer arithmetic in the libcrypto that ``hashlib`` already loads.

Miller–Rabin witnesses and CRT signatures are most of what key
generation and signing cost, and CPython's ``pow`` is about ten times
slower than OpenSSL's ``BN_mod_exp`` at the sizes the study mints (886
against 80 µs for one 512-bit power, CPython 3.11 on a 2-vCPU host).
:func:`powmod` returns exactly ``pow(base, exponent, modulus)`` but
computes it in libcrypto, reached through ``ctypes`` in the library
that Python's own ``_hashlib`` extension is linked against: ``dlsym``
on that handle also searches the libraries it depends on, so no
library is added and no soname is guessed.  A :class:`Dividend` does
the same for ``value % modulus``, one large ``value`` over many
moduli, through ``BN_div``: the prime screen's stage-2 remainder.

Builtin ``pow`` and ``%`` are the fallbacks, for the life of the
process, wherever libcrypto cannot be reached that way, and for any
argument outside the domain the native calls are made with (for
``powmod``, an odd modulus above 1, a base in ``[0, modulus)`` and a
non-negative exponent; for a remainder, a positive modulus).
``ctypes`` is imported on the first call, so a process that never
exponentiates never loads it.  Each call frees the native state it
allocates; what outlives a call is the resolved function pointers and
each ``Dividend``'s BIGNUM, built once on first use and only read
after that, so threads and forked workers may share them.
"""

from __future__ import annotations

import threading
import weakref
from types import SimpleNamespace

# None until the first call; then the resolved entry points, or False
# where libcrypto cannot be reached (the builtins from then on).
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
            "BN_div": (ctypes.c_int, [bn, bn, bn, bn, bn]),
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


def _to_bn(lib: SimpleNamespace, value: int, size: int):
    """A new BIGNUM holding ``value`` (``size`` big-endian bytes), or NULL."""
    return lib.BN_bin2bn(value.to_bytes(size, "big"), size, None)


def _from_bn(lib: SimpleNamespace, number, size: int) -> int:
    out = lib.buffer(size)
    if lib.BN_bn2binpad(number, out, size) != size:
        raise ArithmeticError("BN_bn2binpad failed")
    return int.from_bytes(out.raw, "big")


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
    ctx = result = a = p = m = None
    try:
        ctx = lib.BN_CTX_new()
        result = lib.BN_new()
        a = _to_bn(lib, base, size)
        p = _to_bn(lib, exponent, (exponent.bit_length() + 7) // 8)
        m = _to_bn(lib, modulus, size)
        if not (ctx and result and a and p and m):
            raise MemoryError("libcrypto could not allocate a BIGNUM")
        if not lib.BN_mod_exp(result, a, p, m, ctx):
            raise ArithmeticError("BN_mod_exp failed")
        return _from_bn(lib, result, size)
    finally:
        # BN_free and BN_CTX_free ignore NULL.
        for number in (result, a, p, m):
            lib.BN_free(number)
        lib.BN_CTX_free(ctx)


class Dividend:
    """A fixed non-negative ``value`` to take remainders of.

    :meth:`remainder` returns exactly ``value % modulus``.  Converting
    a large ``value`` costs about half what the division does (33
    against 73 µs for the prime screen's 11,396 bytes over a 512-bit
    modulus, 2-vCPU host), so the BIGNUM is built on the first call
    that reaches libcrypto and kept, never written again, until the
    object is collected or the process exits.
    """

    def __init__(self, value: int) -> None:
        if not (isinstance(value, int) and value >= 0):
            raise ValueError("a Dividend is a non-negative int")
        self.value = value
        self._bignum = None
        self._build_lock = threading.Lock()

    def _kept(self, lib: SimpleNamespace):
        with self._build_lock:
            if self._bignum is None:
                number = _to_bn(lib, self.value, (self.value.bit_length() + 7) // 8)
                if not number:
                    raise MemoryError("libcrypto could not allocate a BIGNUM")
                weakref.finalize(self, lib.BN_free, number)
                self._bignum = number
        return self._bignum

    def remainder(self, modulus: int) -> int:
        """``value % modulus``, computed by libcrypto's ``BN_div``."""
        lib = _libcrypto if _libcrypto is not None else _load()
        if not (lib and isinstance(modulus, int) and modulus > 0):
            return self.value % modulus
        dividend = self._bignum or self._kept(lib)
        size = (modulus.bit_length() + 7) // 8
        ctx = result = m = None
        try:
            ctx = lib.BN_CTX_new()
            result = lib.BN_new()
            m = _to_bn(lib, modulus, size)
            if not (ctx and result and m):
                raise MemoryError("libcrypto could not allocate a BIGNUM")
            if not lib.BN_div(None, result, dividend, m, ctx):
                raise ArithmeticError("BN_div failed")
            return _from_bn(lib, result, size)
        finally:
            for number in (result, m):
                lib.BN_free(number)
            lib.BN_CTX_free(ctx)

"""Each thread's libcrypto context and scratch BIGNUMs.

:func:`repro.crypto.bignum.powmod` and :meth:`~repro.crypto.bignum.Dividend.remainder`
keep one ``BN_CTX`` and four scratch BIGNUMs per thread, made on the
thread's first call and freed when it ends.  ``ctypes`` releases the GIL
for the length of each native call, so threads really do run in
libcrypto at once: each must get exactly what builtin ``pow`` and ``%``
return, a finished thread's native state must be freed, a failed
allocation must free what it got, and a forked child, which starts with
a copy of the forking thread's scratch, must compute the same values.
"""

import gc
import os
import random
import sys
import threading
import types

import pytest
from test_bignum import needs_libcrypto

from repro.crypto import bignum

JOIN_TIMEOUT_S = 120


def cases(seed: int, count: int = 12) -> list[tuple[int, int, int]]:
    """``(base, exponent, modulus)`` triples with odd moduli of 64–1,024 bits."""
    rng = random.Random(seed)
    drawn = []
    for _ in range(count):
        bits = rng.choice((64, 255, 512, 1024))
        modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        drawn.append((rng.randrange(modulus), rng.getrandbits(bits), modulus))
    return drawn


DIVIDEND = bignum.Dividend(random.Random(99).getrandbits(8192))


def mismatches(seed: int) -> list:
    """Every case where libcrypto's answer differs from the builtin's."""
    wrong = []
    for base, exponent, modulus in cases(seed):
        if bignum.powmod(base, exponent, modulus) != pow(base, exponent, modulus):
            wrong.append(("powmod", seed, modulus))
        if DIVIDEND.remainder(modulus) != DIVIDEND.value % modulus:
            wrong.append(("remainder", seed, modulus))
    return wrong


def run_threads(targets) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
    assert not any(thread.is_alive() for thread in threads)


@needs_libcrypto
class TestPerThreadContext:
    def test_more_threads_than_cores_get_the_builtin_answers(self):
        threads = (os.cpu_count() or 1) + 2
        wrong: list = []
        errors: list = []

        def work(seed):
            try:
                for round_seed in range(seed, seed + 40 * threads, threads):
                    wrong.extend(mismatches(round_seed))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_threads([lambda seed=seed: work(seed) for seed in range(threads)])
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert wrong == []

    def test_each_thread_has_its_own_scratch_freed_when_it_ends(self, monkeypatch):
        freed = []
        free = bignum._free

        def recording_free(lib, ctx, numbers):
            freed.append((ctx, tuple(numbers)))
            free(lib, ctx, numbers)

        monkeypatch.setattr(bignum, "_free", recording_free)
        bignum.powmod(3, 5, 7)
        main = bignum._per_thread.scratch
        wrong: list = []
        made = []

        def work():
            wrong.extend(mismatches(7))
            scratch = bignum._per_thread.scratch
            numbers = (scratch.result, scratch.a, scratch.p, scratch.m)
            made.append((scratch.ctx, numbers))

        run_threads([work, work])
        assert wrong == []
        assert len(made) == 2
        assert main.ctx not in {ctx for ctx, _ in made}
        assert sorted(freed) == sorted(made)

    def test_a_failed_allocation_frees_what_it_got(self):
        freed = []
        handles = iter((0x10, 0x20, 0, 0x40))
        stand_in = types.SimpleNamespace(
            BN_CTX_new=lambda: 0x1,
            BN_new=lambda: next(handles),
            BN_free=freed.append,
            BN_CTX_free=freed.append,
        )
        with pytest.raises(MemoryError):
            bignum._Scratch(stand_in)
        gc.collect()
        assert freed == [0x10, 0x20, 0, 0x40, 0x1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_computes_the_same_values(self):
        assert mismatches(1) == []  # the forking thread's scratch exists
        expected = [
            (pow(*case), DIVIDEND.value % case[2]) for case in cases(3)
        ]
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child
            status = 1
            try:
                os.close(read_end)
                got = [
                    (bignum.powmod(*case), DIVIDEND.remainder(case[2]))
                    for case in cases(3)
                ]
                os.write(write_end, repr(got).encode("ascii"))
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            reply = pipe.read()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert reply.decode("ascii") == repr(expected)

"""Compiler parity pin: every compiled program is byte-for-byte stable.

The compiler builds programs from shared instruction blocks (one tuple
per block, interned per layout) instead of allocating one instruction
object per emit.  That must not change what is emitted: each digest
below is a SHA-256 over a program's instruction stream (``repr`` of
every instruction, one per line) followed by ``repr(sections)``,
recorded with the per-instruction compiler it replaced, for every
built-in parameter set on the default 256x256 engine geometry.
"""

import hashlib

import pytest

from repro.core.engine import BPNTTEngine
from repro.ntt.params import get_params, list_param_names

PINNED = {
    "dilithium": (
        "5d72add025a73f56f9dd6ca2d1a039cb35047eda4c1210a73aa74ca2de0deef5",
        "fbd19acf3aaf5026025fb30309c02fd35492de3847c3fa9c95dd49947c7488c0",
        "5a1c8a36648b294caeaebd45ad135953cba1b55cfbc3600d6d9eeaeeca701266",
    ),
    "falcon1024": (
        "a4dcc27eb26634dde20d05f8fdd16d2db6ade8679b6f57e867e60eb926f0fc23",
        "8128d4a61dc1c1c1dc6d0f285b6804fdae961f8585cece34771d65d45bda2aec",
        "a987b61025155feb2935d9a3d17c94c21237cdd998e7f4535fb3a8402fe0da77",
    ),
    "falcon512": (
        "f6c33b451c2bf0128c0ae1aca4bb90f6f27374c6acd616fa97f7a0b6d40e9099",
        "8a6679e884e3401dc647611181c25004b5fe40f56fafa900894ace851a4b9287",
        "67ff7b7978519fa830fd1df07a9b8e99ab1b5fb09c76ec612f910fa20cddcede",
    ),
    "he-16bit": (
        "43629a0da5911f4e4216df2f1a231aefb098aee673a2cc16c6800deb200f44ad",
        "2d501fab2d43606efa99993dd4adc84fad60d50a7fc5d15b45bf75fe8803f932",
        "36328aab24fb1425b504488b94a52fe12b795f498bd1f669fdd9fc16bd4989d9",
    ),
    "he-21bit": (
        "82dee29dfec0151848419820f6d6bf3398d7347d338381409e4cd38e802f3c06",
        "5ccbf34d497f00be00813df16e47a0278f0d3bd5fcd7f62a943c66071f83e0e6",
        "2ae18f7f272167a46bd022ed7e9bf68cbb2dfd5c4e5610b965fabd22f1e3d87a",
    ),
    "he-29bit": (
        "86098e180f88b3ffb7440b9d0399da66d570fef1e7dc6956fdd08be9162410ed",
        "8081902b8dddc69727453eb5ccd742efaf6cbb79bfd0700d13dcf5b896464482",
        "e4d64b9761e7eb4e5ea7b312edd5ab818fe1e58b55ae89ffa0f0ada5e6296de1",
    ),
    "kyber-v1": (
        "725fe53431a897f7859a7894266bacc86d592f45ce82de973d97b304d98f61b5",
        "953a9764a0e4aab4e15ba3589cb9085d615d03560f94a7c724a54e28556c59f9",
        "f608c919f24afe7fc25c453989146573be0a9c91c5160f8c0a3f2d0ed5da1c36",
    ),
    "table1-14bit": (
        "38e41fbfbade8e14b59ac043a5c996be3aaa01f6f9ddb8852003f866c6f9fce0",
        "cba33d9204f933ad8bbe025fafa8f0efcb9625a0281ddb1fd151242399e9f61a",
        "3c6e60b6d47e5ac6c99e30462a472202bfb1369bd79918659ee1ae1250f6ba0f",
    ),
    "table1-16bit": (
        "f681ed82da49f6cc0bd1f4111a1461a9c37a71c170dc25479809a0d220e71814",
        "60d2ba103f280336c881923cc172c84554dc3ba2710fd05ba67d95f2da0a1f11",
        "d5839344cd6bb1c131af8d032ffe95e5b6aef9bec634b71c50e27de696e11cb2",
    ),
}


def fixed_operand(params):
    """The pointwise multiplier the pins were recorded with."""
    return [(7919 * i + 1) % params.q for i in range(params.n)]


def compiled(name):
    """``(ntt, intt, pointwise)`` programs of one parameter set."""
    params = get_params(name)
    engine = BPNTTEngine(params)
    return (
        engine.compiled_program("ntt"),
        engine.compiled_program("intt"),
        engine.pointwise_program(fixed_operand(params)),
    )


def program_digest(program):
    digest = hashlib.sha256()
    lines = {}  # instructions are shared objects: render each once
    for instruction in program.instructions:
        line = lines.get(id(instruction))
        if line is None:
            line = lines[id(instruction)] = (repr(instruction) + "\n").encode()
        digest.update(line)
    digest.update(repr(program.sections).encode())
    return digest.hexdigest()


def test_pins_cover_every_registered_set():
    assert sorted(PINNED) == list_param_names()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_compiled_programs_match_pins(name):
    digests = tuple(program_digest(p) for p in compiled(name))
    assert digests == PINNED[name]


def test_he16_ntt_shares_its_instruction_objects():
    # 2.2 M instructions but only ~2 k distinct values: a compiler that
    # allocates per instruction again would hold millions of objects.
    ntt = BPNTTEngine(get_params("he-16bit")).compiled_program("ntt")
    assert len(ntt.instructions) > 2_000_000
    assert len({id(i) for i in ntt.instructions}) <= 4096

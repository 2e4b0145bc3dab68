"""Inputs and the correctness oracle.

Inputs come from ``OperationSpec.make_input`` driven by a
``random.Random`` seeded with the string ``"<seed>:<round>:<op id>"``, where
the round counts the op's protocol rounds from 0.
String seeds go through SHA-512, so every process draws the same inputs
whatever ``PYTHONHASHSEED`` is.

The oracle is the ``memory`` backend generated from the same seed.  A
repetition's result is reduced to a digest over ``uniqueId`` values
outside the timed region, and compared with the oracle's answer for the
same input.  Set-valued operations compare as multisets.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence

from repro.backends.registry import create_backend
from repro.core.generator import DatabaseGenerator, GeneratedDatabase
from repro.core.interface import HyperModelDatabase
from repro.core.operations import OperationSpec, Operations

REPETITIONS = 50

#: Ops whose answer is a set; their result order is not part of the answer.
SET_VALUED = frozenset({"03", "04", "05B", "07B", "08", "14"})

#: Digest of a repetition that raised or returned a reference outside
#: the structure; it equals no answer.
NO_ANSWER = object()


def all_uids(gen: GeneratedDatabase) -> List[int]:
    """Every uniqueId of the generated structure."""
    return [uid for level in gen.uids_by_level for uid in level]


def uid_map(db: HyperModelDatabase, gen: GeneratedDatabase) -> Dict[object, int]:
    """Node reference -> uniqueId, built once outside every timed region."""
    return {db.lookup(uid): uid for uid in all_uids(gen)}


def draw_inputs(
    spec: OperationSpec,
    gen: GeneratedDatabase,
    db: HyperModelDatabase,
    seed: int,
    round_index: int,
) -> List[tuple]:
    """The 50 inputs of one op's protocol round."""
    rng = random.Random(f"{seed}:{round_index}:{spec.op_id}")
    if spec.same_input_every_repetition:
        return [spec.make_input(gen, rng, db)] * REPETITIONS
    return [spec.make_input(gen, rng, db) for _ in range(REPETITIONS)]


def digest(op_id: str, result: object, uid_of: Dict[object, int]) -> object:
    """A backend-independent digest of one result."""
    if result is None or isinstance(result, int):
        return result
    try:
        items = [
            (uid_of[item[0]], item[1]) if isinstance(item, tuple) else uid_of[item]
            for item in result
        ]
    except KeyError:
        return NO_ANSWER
    if op_id in SET_VALUED:
        items.sort()
    return hash((len(items), tuple(items)))


class Oracle:
    """The memory backend generated from the workload seed."""

    def __init__(self, config, seed: int) -> None:
        self.seed = seed
        self.db = create_backend("memory")
        self.db.open()
        self.gen = DatabaseGenerator(config).generate(self.db)
        self.ops = Operations(self.db, config)
        self.uid_of = uid_map(self.db, self.gen)
        self._answers: Dict[tuple, object] = {}

    def answers(self, spec: OperationSpec, round_index: int) -> List[object]:
        """Expected digests for the 50 inputs of one round of ``spec``.

        The oracle stays in the generated state: a mutating op (12, 16,
        17) is an involution, so it runs twice per distinct input and
        both runs must give the same answer.  The benchmarked database
        is back in that state at every op boundary too, because each
        pass pair applies every edit an even number of times.
        """
        out = []
        for args in draw_inputs(spec, self.gen, self.db, self.seed, round_index):
            key = (spec.op_id,) + tuple(
                arg if isinstance(arg, int) else self.uid_of[arg] for arg in args
            )
            if key not in self._answers:
                answer = digest(spec.op_id, spec.run(self.ops, args), self.uid_of)
                if spec.mutates:
                    again = digest(spec.op_id, spec.run(self.ops, args), self.uid_of)
                    if again != answer:
                        raise RuntimeError(f"op {spec.op_id} is not an involution")
                self._answers[key] = answer
            out.append(self._answers[key])
        return out

    def state_mismatches(
        self, db: HyperModelDatabase, uid_of: Dict[object, int]
    ) -> int:
        """Nodes whose attributes, text or bitmap differ from the oracle's."""
        bench_ref = {uid: ref for ref, uid in uid_of.items()}
        oracle_ref = {uid: ref for ref, uid in self.uid_of.items()}
        uids = all_uids(self.gen)
        bad = set()
        for name in ("ten", "hundred", "million"):
            got = db.get_attributes_many([bench_ref[u] for u in uids], name)
            want = self.db.get_attributes_many([oracle_ref[u] for u in uids], name)
            bad.update(u for u, g, w in zip(uids, got, want) if g != w)
        for uid in self.gen.text_uids:
            if db.get_text(bench_ref[uid]) != self.db.get_text(oracle_ref[uid]):
                bad.add(uid)
        for uid in self.gen.form_uids:
            if db.get_bitmap(bench_ref[uid]) != self.db.get_bitmap(oracle_ref[uid]):
                bad.add(uid)
        return len(bad)


def count_failures(expected: Sequence[object], *passes: Iterable[object]) -> int:
    """Repetitions whose digest differs from the oracle's answer."""
    return sum(
        got is NO_ANSWER or got != want
        for digests in passes
        for got, want in zip(digests, expected)
    )

"""Seeded instance generation: the draws, and the documents they emit."""

import hashlib
import random

from scencover.core import enumerate_partials
from scencover.generate import random_instance
from scencover.serialize import dumps_document, emit_document
from scencover.utility import partial_table

#: The families the corpus draws, in `generate.FAMILIES` order.
CORPUS_FAMILIES = ("coverage", "k_of_n", "or", "g_S", "g_W")

#: sha256 of `generated_corpus()`; it moves when a draw of `random_instance`
#: moves (which value, or how many), or when a generated utility's values do.
CORPUS_DIGEST = ("4932c2816c8991813355a1fe0cb0e3dd"
                 "de13cc4b56508b48ecee2f5f764b5154")


def generated_corpus():
    """Every family at 2 and 3 states (k_of_n only at 2) and three seeds:
    each instance's emitted document, its utility's value on every partial
    realization, and the generator's next draw, one text per instance."""
    for family in CORPUS_FAMILIES:
        for states in (2, 3):
            if family == "k_of_n" and states == 3:
                continue
            for seed in range(3):
                rng = random.Random(seed)
                instance, descriptor = random_instance(
                    rng, n=3 + seed, num_states=states, sample_size=5,
                    family=family, universe_size=3 + seed)
                g = instance.utility
                values = partial_table(g.alphabet, g.n, g.root(), g.step,
                                       g.level)
                assert values == [g.value(b) for b in
                                  enumerate_partials(g.alphabet, g.n)]
                yield "%s\n%r\n%d\n" % (
                    dumps_document(emit_document(instance, descriptor)),
                    values, rng.getrandbits(32))


def test_generated_corpus_digest():
    digest = hashlib.sha256()
    for text in generated_corpus():
        digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == CORPUS_DIGEST


def test_generated_corpus_covers_every_family():
    # imported here so that the digest test also runs on sources that
    # predate the family list
    from scencover.generate import FAMILIES

    assert CORPUS_FAMILIES == FAMILIES

"""A fixed slice of the corpus gate (tests/corpus.py) against its frozen
digests: every kpu command's exit code, stdout, stderr and files, byte for
byte, with each command's outputs written over the previous image's.

The full list runs as ``python tests/corpus.py``.
"""

import corpus


def test_corpus_slice_matches_the_frozen_digests():
    entries = corpus.build(**corpus.SLICE)
    assert 250 <= len(entries) <= 350
    frozen = corpus.load_digests()
    got = corpus.run(entries)
    assert [name for name, _ in got] == [entry[0] for entry in entries]
    differ = [name for name, sha in got if frozen.get(name) != sha]
    assert not differ, "%d images differ, first %s" % (len(differ),
                                                       differ[:5])


def test_frozen_list_is_the_full_corpus():
    names = [entry[0] for entry in corpus.build(**corpus.FULL)]
    assert list(corpus.load_digests()) == names

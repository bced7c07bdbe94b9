"""Delta-debugging shrinker for diverging torture programs.

Zeller-style ddmin over the program's *op groups* (each group is an
atomic tuple of assembly lines with private labels, so any subset of
groups still assembles — see :mod:`repro.verify.torture`).  The result
is 1-minimal: removing any single remaining group makes the divergence
disappear.  Minimal reproducers are written to ``tests/regressions/``
as self-describing ``.s`` files and replayed as a regression corpus by
``tests/test_regressions_corpus.py`` and the CI torture-smoke job.
"""

import hashlib
import os

from repro.asm.assembler import assemble
from repro.machines import NAMES as MACHINE_NAMES
from repro.verify.lockstep import Divergence, run_lockstep

#: corpus location, relative to the repository root
CORPUS_DIR = os.path.join("tests", "regressions")

#: header magic every corpus file starts with
CORPUS_MAGIC = "# torture-reproducer v1"


def _chunks(items, n):
    """Split ``items`` into ``n`` roughly equal contiguous chunks."""
    size, rem = divmod(len(items), n)
    out, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < rem else 0)
        if end > start:
            out.append(items[start:end])
        start = end
    return out


def ddmin(items, check, max_checks=10_000):
    """Minimise ``items`` (a list) such that ``check(items)`` stays
    True.  ``check`` must be True for the input.  Returns a 1-minimal
    sublist (order preserved)."""
    items = list(items)
    if not check(items):
        raise ValueError("ddmin: input does not satisfy the predicate")
    checks = 0
    n = 2
    while len(items) >= 2 and checks < max_checks:
        chunks = _chunks(items, n)
        reduced = False
        for i in range(len(chunks)):
            candidate = [x for j, chunk in enumerate(chunks) if j != i
                         for x in chunk]
            checks += 1
            if check(candidate):
                items = candidate
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), n * 2)
    return items


def divergence_predicate(machine, config="F4C2", fast_forward=True,
                         max_cycles=300_000):
    """``pred(TortureProgram) -> bool``: True iff the program still
    *diverges* on ``machine`` (hangs, assembler errors and clean runs
    all count as False, so shrinking never trades one failure mode for
    another)."""
    def pred(program):
        try:
            run_lockstep(assemble(program.source), machine=machine,
                         config=config, fast_forward=fast_forward,
                         max_cycles=max_cycles)
        except Divergence:
            return True
        except Exception:
            return False
        return False
    return pred


def shrink_program(program, predicate):
    """ddmin a :class:`TortureProgram` to a minimal diverging one."""
    minimal = ddmin(list(program.ops),
                    lambda groups: predicate(program.with_ops(groups)))
    return program.with_ops(minimal)


def reproducer_name(program, machine):
    digest = hashlib.sha1(program.source.encode()).hexdigest()[:8]
    return f"shrink_s{program.seed}_{machine}_{digest}.s"


def write_reproducer(directory, program, machine, divergence=None,
                     config="F4C2", fast_forward=True):
    """Write a shrunk program as a self-describing corpus file."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, reproducer_name(program, machine))
    header = [
        CORPUS_MAGIC,
        f"# seed: {program.seed}  machine: {machine}  config: {config}"
        f"  ff: {'on' if fast_forward else 'off'}"
        f"  simt: {'on' if program.simt else 'off'}",
    ]
    if divergence is not None:
        first = str(divergence).splitlines()[0]
        header.append(f"# divergence: {first}")
    header.append(f"# ops: {len(program.ops)} (shrunk)")
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        fh.write(program.source)
    return path


def corpus_files(directory=CORPUS_DIR):
    """Sorted corpus ``.s`` paths under ``directory`` (may be empty)."""
    if not os.path.isdir(directory):
        return []
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory)
                  if name.endswith(".s"))


def replay_corpus(directory=CORPUS_DIR, machines=MACHINE_NAMES,
                  ff_modes=(True, False), max_cycles=300_000):
    """Replay every corpus file on every machine × FF mode.

    Returns ``[(path, machine, ff, error-or-None), ...]`` — a corpus
    file is green only when *no* combination diverges (regressions are
    checked against both engines regardless of which one originally
    diverged)."""
    results = []
    for path in corpus_files(directory):
        with open(path) as fh:
            source = fh.read()
        program = assemble(source)
        for machine in machines:
            for ff in ff_modes:
                error = None
                try:
                    run_lockstep(program, machine=machine,
                                 fast_forward=ff, max_cycles=max_cycles)
                except Exception as exc:  # Divergence or hang
                    error = exc
                results.append((path, machine, ff, error))
    return results

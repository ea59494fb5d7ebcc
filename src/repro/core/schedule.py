"""The Algorithm 2 per-batch update schedule as an explicit, testable object.

The seed trainer hard-coded its D/C/G interleave inside the epoch loop:
one discriminator step, one classifier step, a feature-statistics refresh,
then ``config.generator_updates`` generator steps.  That order is a
*contract* — the information loss reads statistics refreshed from the
post-update discriminator, and the first generator step reuses the
discriminator forward the refresh just paid for — so it deserves a named,
inspectable representation rather than a code shape.

:class:`UpdateSchedule` is that representation: a frozen sequence of named
ops, one entry per optimizer step or statistics refresh within a
mini-batch.  ``UpdateSchedule.from_config`` reproduces the seed interleave
exactly (the contract tests in ``tests/core/test_schedule.py`` pin the
replay down bit-for-bit), and :meth:`UpdateSchedule.rounds` derives the
synchronization-round grouping the trainer (:mod:`repro.core.trainer`)
executes, stepping each optimizer once per round on the sum of the
round's gradient shards.

Ops
---
``d``
    One discriminator Adam step on the original GAN loss (line 8).
``c``
    One classifier Adam step on the classification loss (line 9); a no-op
    when the classifier is disabled.
``stats``
    The EWMA feature-statistics refresh from post-update discriminator
    features of the real and synthetic batches (lines 10–13).
``g``
    One generator Adam step on L_orig + L_info + L_class (line 14).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Every op name an :class:`UpdateSchedule` may contain.
OPS = ("d", "c", "stats", "g")


@dataclass(frozen=True)
class UpdateSchedule:
    """An ordered tuple of per-batch update ops (see module docstring).

    Frozen and hashable: a schedule is configuration, and it participates
    in the checkpoint fingerprint — resuming under a different schedule is
    a different run and is refused.
    """

    ops: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if not self.ops:
            raise ValueError("schedule needs at least one op")
        unknown = sorted({op for op in self.ops if op not in OPS})
        if unknown:
            raise ValueError(
                f"unknown schedule ops {unknown}; valid ops: {', '.join(OPS)}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config) -> "UpdateSchedule":
        """The seed interleave for ``config``: d, c, stats, then
        ``config.generator_updates`` generator steps."""
        return cls.for_counts(g_steps=config.generator_updates)

    @classmethod
    def for_counts(cls, d_steps: int = 1, g_steps: int = 1,
                   classifier: bool = True,
                   refresh_stats: bool = True) -> "UpdateSchedule":
        """A schedule with ``d_steps`` D ops then ``g_steps`` G ops.

        The classifier step and the statistics refresh sit between the two
        blocks, exactly where the seed loop put them.
        """
        if d_steps < 1:
            raise ValueError(f"d_steps must be >= 1, got {d_steps}")
        if g_steps < 1:
            raise ValueError(f"g_steps must be >= 1, got {g_steps}")
        ops: tuple[str, ...] = ("d",) * d_steps
        if classifier:
            ops += ("c",)
        if refresh_stats:
            ops += ("stats",)
        ops += ("g",) * g_steps
        return cls(ops)

    # ------------------------------------------------------------------
    @property
    def d_steps(self) -> int:
        """Discriminator steps per mini-batch."""
        return sum(1 for op in self.ops if op == "d")

    @property
    def g_steps(self) -> int:
        """Generator steps per mini-batch."""
        return sum(1 for op in self.ops if op == "g")

    def rounds(self) -> tuple[tuple[str, ...], ...]:
        """The schedule partitioned into synchronization rounds.

        A round is a maximal run of ops whose gradient computations all
        read the *pre-round* weights and statistics, so workers can
        compute them from one weight broadcast and the master can apply
        the reduced steps together before the next round:

        * a ``d`` op immediately followed by ``c`` shares its round (the
          classifier update reads neither D's weights nor D's features);
        * every other op is its own round — ``stats`` reads the D weights
          a preceding ``d`` just wrote, each ``g`` reads the G weights the
          previous ``g`` wrote.
        """
        rounds: list[tuple[str, ...]] = []
        i = 0
        while i < len(self.ops):
            if (self.ops[i] == "d" and i + 1 < len(self.ops)
                    and self.ops[i + 1] == "c"):
                rounds.append(("d", "c"))
                i += 2
            else:
                rounds.append((self.ops[i],))
                i += 1
        return tuple(rounds)

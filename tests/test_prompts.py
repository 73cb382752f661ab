"""Tests for prompt template loading and construction."""

from __future__ import annotations

import builtins
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import template_substitute
from selfverify.core import (
    ExtractedItem,
    ExtractionSet,
    StatusLabel,
    TASKS,
    clinical_trial_arm_task,
    icd_task,
    medication_status_task,
)
from selfverify.prompts import (
    CATALOG_ROOT,
    DEFAULT_DEMONSTRATIONS,
    DemoExample,
    FAMILY_STEPS,
    build_evidence_prompt,
    build_icd_map_prompt,
    build_megaprompt,
    build_omission_prompt,
    build_original_prompt,
    build_prune_prompt,
    catalog_version,
    compile_template,
    family_template,
    render_answer,
    render_demonstrations,
    sample_demonstrations,
    shared_template,
)

DOC = "Patient was started on aspirin. Metformin was discontinued last week."


class TestCatalog:
    def test_version_present(self):
        assert catalog_version() == "1"

    def test_default_demo_count(self):
        assert DEFAULT_DEMONSTRATIONS == 5

    def test_every_family_has_every_step(self):
        for task in TASKS.values():
            for step in FAMILY_STEPS:
                assert family_template(task.family, step) is not None

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError):
            family_template(medication_status_task().family, "bogus")
        with pytest.raises(ValueError):
            shared_template("bogus")

    def test_all_prompts_fully_substituted(self):
        items = ExtractionSet((ExtractedItem.from_raw("aspirin"),))
        for task in TASKS.values():
            built = [
                build_original_prompt(task, DOC),
                build_omission_prompt(task, DOC, items),
                build_evidence_prompt(task, DOC, items),
                build_prune_prompt(task, DOC, "aspirin", quote="on aspirin"),
                build_prune_prompt(task, DOC, "aspirin"),
                build_megaprompt(task, DOC),
            ]
            if task.icd_version:
                built.append(build_icd_map_prompt(task, items))
            for prompt in built:
                assert "${" not in prompt
                assert "$ {" not in prompt


def every_prompt() -> list[str]:
    items = ExtractionSet((ExtractedItem.from_raw("aspirin"),))
    built = []
    for task in TASKS.values():
        built += [
            build_original_prompt(task, DOC),
            build_omission_prompt(task, DOC, items),
            build_evidence_prompt(task, DOC, items),
            build_prune_prompt(task, DOC, "aspirin", quote="on aspirin"),
            build_prune_prompt(task, DOC, "aspirin"),
            build_megaprompt(task, DOC),
        ]
        if task.icd_version:
            built.append(build_icd_map_prompt(task, items))
    return built


class TestTemplatesLoadOnce:
    def test_rebuilding_reads_no_file(self, monkeypatch):
        first = every_prompt()

        def refuse(*args, **kwargs):
            raise AssertionError("a prompt build touched the catalog on disk")

        with monkeypatch.context() as m:
            m.setattr(Path, "exists", refuse)
            m.setattr(Path, "read_text", refuse)
            m.setattr(builtins, "open", refuse)
            again = every_prompt()
        assert again == first


# Text that a format string or a Template would read as syntax if it parsed
# a value; both must insert it verbatim.
_HOSTILE = "a $ b ${x} {c} {0} }{ %s $$ {{d}}"


class _Values(dict):
    """A hostile value for any placeholder name."""

    def __missing__(self, name: str) -> str:
        return f"<{name}: {_HOSTILE}>"


_VALUES = _Values()
# Template syntax, literal braces and format syntax, plus letters that match
# [a-z] only when case folds beyond ASCII (long s, Kelvin sign, dotless i).
_TEMPLATE_PIECES = ("$$", "$", "${a}", "$a", "$b_1", "${b_1}x", "${", "$1", "${ a}", "{", "}",
                    "{0}", "{a}", "{{", "%s", " ", "x", "\n", "ſ", "\u212a", "ı", "é")


class TestCompiledTemplates:
    """A compiled template fills in the bytes that string.Template's substitute did."""

    def test_every_catalog_template(self):
        paths = sorted(CATALOG_ROOT.glob("*/*.txt"))
        assert len(paths) == 17
        for path in paths:
            text = path.read_text(encoding="utf-8")
            expected = template_substitute(text, _VALUES)
            assert compile_template(text).format_map(_VALUES) == expected, path
            assert _HOSTILE in expected

    def test_builders_insert_values_verbatim(self):
        task = medication_status_task()
        text = (CATALOG_ROOT / task.family.value / "prune.txt").read_text(encoding="utf-8")
        values = {"document": f"doc {_HOSTILE}", "item": f"item {_HOSTILE}", "quote": f"quote {_HOSTILE}"}
        built = build_prune_prompt(task, values["document"], values["item"], quote=values["quote"])
        assert built == template_substitute(text, values)

    def test_literal_braces_and_escaped_dollars(self):
        text = "{x} {{a}} $$ $$a ${a}{0} $b_1}} %s $$$x {"
        compiled = compile_template(text)
        assert compiled == "{{x}} {{{{a}}}} $ $a {a}{{0}} {b_1}}}}} %s ${x} {{"
        assert compiled.format_map(_VALUES) == template_substitute(text, _VALUES)

    @given(st.lists(st.sampled_from(_TEMPLATE_PIECES), max_size=12).map("".join))
    @settings(max_examples=400)
    def test_matches_substitute_or_raises_alike(self, text):
        try:
            expected = template_substitute(text, _VALUES)
        except ValueError:
            with pytest.raises(ValueError, match="invalid placeholder"):
                compile_template(text)
            return
        assert compile_template(text).format_map(_VALUES) == expected

    def test_invalid_placeholder_fails_at_compile_time(self):
        for text in ("cost: $5", "trailing $", "${unclosed", "${ a}"):
            with pytest.raises(ValueError, match="invalid placeholder"):
                compile_template(text)


class TestRendering:
    def test_render_answer_plain(self):
        task = clinical_trial_arm_task()
        out = render_answer(task, [("placebo", None), ("high dose", None)])
        assert out == "- placebo\n- high dose"

    def test_render_answer_with_status(self):
        task = medication_status_task()
        out = render_answer(task, [("aspirin", StatusLabel.ACTIVE), ("statin", None)])
        assert out == "- aspirin: Active\n- statin: Neither"

    def test_render_answer_empty(self):
        assert render_answer(clinical_trial_arm_task(), []) == "None"

    def test_render_demonstrations_empty(self):
        assert render_demonstrations([]) == ""

    def test_render_demonstrations_blocks(self):
        out = render_demonstrations(
            [DemoExample("text one", "- a"), DemoExample("text two", "- b")]
        )
        assert "text one" in out and "text two" in out
        assert out.endswith("\n\n")


class TestSampleDemonstrations:
    def test_deterministic(self):
        pool = [DemoExample(f"t{i}", f"- a{i}") for i in range(20)]
        assert sample_demonstrations(pool, 5, seed=3) == sample_demonstrations(pool, 5, seed=3)

    def test_seed_changes_sample(self):
        pool = [DemoExample(f"t{i}", f"- a{i}") for i in range(20)]
        assert sample_demonstrations(pool, 5, seed=1) != sample_demonstrations(pool, 5, seed=2)

    def test_k_zero(self):
        assert sample_demonstrations([DemoExample("t", "a")], 0, seed=1) == []

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            sample_demonstrations([DemoExample("t", "a")], 2, seed=1)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            sample_demonstrations([], -1, seed=1)


class TestBuildPrompts:
    def test_original_embeds_document(self):
        prompt = build_original_prompt(medication_status_task(), DOC)
        assert DOC in prompt
        assert "Here are some examples." not in prompt

    def test_original_with_demonstrations(self):
        demos = [DemoExample("demo text", "- demo med: Active")]
        prompt = build_original_prompt(medication_status_task(), DOC, demos)
        assert "Here are some examples." in prompt
        assert "demo text" in prompt
        assert prompt.index("demo text") < prompt.index(DOC)

    def test_omission_lists_current_items(self):
        items = ExtractionSet(
            (
                ExtractedItem.from_raw("aspirin", status=StatusLabel.ACTIVE),
                ExtractedItem.from_raw("metformin", status=StatusLabel.DISCONTINUED),
            )
        )
        prompt = build_omission_prompt(medication_status_task(), DOC, items)
        assert "- aspirin: Active" in prompt
        assert "- metformin: Discontinued" in prompt
        assert DOC in prompt

    def test_omission_with_empty_set(self):
        prompt = build_omission_prompt(clinical_trial_arm_task(), DOC, ExtractionSet.empty())
        assert "(none)" in prompt

    def test_evidence_asks_for_quotes(self):
        items = ExtractionSet((ExtractedItem.from_raw("aspirin"),))
        prompt = build_evidence_prompt(medication_status_task(), DOC, items)
        assert "- aspirin" in prompt
        assert "quote" in prompt.lower()

    def test_prune_with_quote_embeds_both(self):
        prompt = build_prune_prompt(medication_status_task(), DOC, "aspirin", quote="on aspirin")
        assert "aspirin" in prompt
        assert '"on aspirin"' in prompt
        assert "Yes or No" in prompt

    def test_prune_without_quote_uses_evidence_free_wording(self):
        prompt = build_prune_prompt(medication_status_task(), DOC, "aspirin")
        assert "quote" not in prompt.lower()
        assert "Yes or No" in prompt

    def test_icd_map_embeds_version(self):
        for version in (9, 10):
            prompt = build_icd_map_prompt(icd_task(version), ["copd exacerbation"])
            assert f"ICD-{version}" in prompt
            assert "- copd exacerbation" in prompt

    def test_icd_map_rejects_other_tasks(self):
        with pytest.raises(ValueError):
            build_icd_map_prompt(medication_status_task(), ["x"])

    def test_document_with_template_chars_is_safe(self):
        tricky = "Cost was ${high} and $variable amounts of 5{units}."
        prompt = build_original_prompt(medication_status_task(), tricky)
        assert tricky in prompt


class TestMegaprompt:
    def test_embeds_original_as_prefix(self):
        task = medication_status_task()
        original = build_original_prompt(task, DOC)
        mega = build_megaprompt(task, DOC)
        assert mega.startswith(original)
        assert len(mega) > len(original)

    def test_numbered_verification_passes(self):
        for task in TASKS.values():
            mega = build_megaprompt(task, DOC)
            for marker in ("(1)", "(2)", "(3)"):
                assert marker in mega
            assert task.item_noun in mega
            assert "quote" in mega
            assert "remove" in mega

    def test_demonstrations_flow_through(self):
        demos = [DemoExample("d text", "- arm a")]
        mega = build_megaprompt(clinical_trial_arm_task(), DOC, demos)
        assert "d text" in mega

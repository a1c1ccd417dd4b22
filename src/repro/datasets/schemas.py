"""Topic schemas: the vocabulary the synthetic corpora are built from.

Each of the five datasets (Section 2.2) is simulated by a set of *topic
schemas*.  A topic schema fixes the gold topic label (Table Clustering
ground truth), a pool of column concepts (Column Clustering ground
truth), caption templates, and a pool of vertical-metadata labels (the
row dimension of non-relational tables).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..text.gazetteers import (
    CRIMES,
    DISEASES,
    DRUGS,
    MUSIC_GENRES,
    ORGANIZATIONS,
    PERSON_FIRST,
    PERSON_LAST,
    PLACES,
    SYMPTOMS,
    TREATMENTS,
    VACCINES,
)

#: Unit pools by measurement flavour (spellings from the unit lexicon).
_TIME_UNITS = ("months", "days", "weeks", "years")
_WEIGHT_UNITS = ("mg", "kg", "g")
_LENGTH_UNITS = ("cm", "mm", "km")
_CAPACITY_UNITS = ("ml", "l")
_PRESSURE_UNITS = ("mmhg",)


@dataclass(frozen=True)
class Concept:
    """A column concept: the unit of Column Clustering ground truth.

    ``kind`` selects the value generator: ``entity`` draws surface forms
    from a gazetteer (stamping gold entity types used by EC), the numeric
    kinds draw numbers/ranges/gaussians with optional units, ``year``
    draws calendar years, ``text`` draws filler phrases.
    """

    name: str
    kind: str = "number"
    entity_type: str | None = None
    entity_pool: tuple[str, ...] = ()
    units: tuple[str, ...] = ()
    low: float = 0.0
    high: float = 100.0
    decimals: int = 1
    synonyms: tuple[str, ...] = ()

    def header_label(self, rng: np.random.Generator, noise: float) -> str:
        """Surface header text; with probability ``noise`` a synonym."""
        if self.synonyms and rng.random() < noise:
            return str(rng.choice(self.synonyms))
        return self.name

    def generate(self, rng: np.random.Generator) -> tuple[str, str | None]:
        """One cell: ``(text, gold_entity_type)``."""
        if self.kind == "entity":
            pool = self.entity_pool
            return str(rng.choice(pool)), self.entity_type
        if self.kind == "year":
            return str(int(rng.integers(1990, 2024))), None
        if self.kind == "text":
            pool = self.entity_pool or ("n/a", "pending", "confirmed", "unknown")
            return str(rng.choice(pool)), None
        value = self._draw(rng)
        unit = f" {rng.choice(self.units)}" if self.units else ""
        if self.kind == "percent":
            return f"{value} %", None
        if self.kind == "range":
            width = self._draw(rng, scale=0.3)
            hi = round(value + abs(width) + 10 ** -self.decimals, self.decimals)
            return f"{value}-{hi}{unit}", None
        if self.kind == "gaussian":
            std = round(abs(self._draw(rng, scale=0.2)) + 10 ** -self.decimals,
                        self.decimals)
            return f"{value} \N{PLUS-MINUS SIGN} {std}{unit}", None
        return f"{value}{unit}", None

    def _draw(self, rng: np.random.Generator, scale: float = 1.0):
        raw = rng.uniform(self.low, self.high) * scale
        if self.decimals == 0:
            return int(round(raw))
        return round(raw, self.decimals)

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("number", "range", "gaussian", "percent")


@dataclass(frozen=True)
class TopicSchema:
    """Everything needed to generate tables of one topic."""

    topic: str
    concepts: tuple[Concept, ...]
    captions: tuple[str, ...]
    vmd_pool: tuple[str, ...] = ()
    vmd_groups: tuple[str, ...] = ()
    hmd_groups: tuple[str, ...] = ("Overview", "Details", "Outcomes")

    def caption(self, rng: np.random.Generator) -> str:
        template = str(rng.choice(self.captions))
        return template.format(place=rng.choice(PLACES), year=rng.integers(2000, 2024))


def _people() -> tuple[str, ...]:
    return tuple(f"{f} {l}" for f, l in zip(PERSON_FIRST, PERSON_LAST))


# ----------------------------------------------------------------------
# Web tables domain (magazines, cities, universities, soccer, players,
# regions, music genres) — Section 2.2's most frequent Webtables topics.
# ----------------------------------------------------------------------
WEBTABLES_TOPICS = (
    TopicSchema(
        topic="magazines",
        concepts=(
            Concept("magazine", "entity", "organization", ORGANIZATIONS,
                    synonyms=("publication", "title")),
            Concept("circulation", "number", low=10_000, high=2_000_000,
                    decimals=0, synonyms=("copies", "readers")),
            Concept("founded", "year", synonyms=("established",)),
            Concept("price", "number", low=1, high=20, decimals=2,
                    synonyms=("cover price",)),
            Concept("frequency", "text",
                    entity_pool=("weekly", "monthly", "quarterly", "daily")),
        ),
        captions=("List of magazines published in {place}",
                  "Popular magazines and their circulation"),
    ),
    TopicSchema(
        topic="cities",
        concepts=(
            Concept("city", "entity", "place", PLACES, synonyms=("town", "municipality")),
            Concept("population", "number", low=50_000, high=9_000_000, decimals=0,
                    synonyms=("inhabitants", "residents")),
            Concept("area", "number", units=("km",), low=20, high=1200,
                    decimals=1, synonyms=("surface",)),
            Concept("elevation", "number", units=("m",), low=0, high=2400,
                    decimals=0),
            Concept("founded", "year"),
        ),
        captions=("Largest cities of {place}", "Cities by population, {year}"),
    ),
    TopicSchema(
        topic="universities",
        concepts=(
            Concept("university", "entity", "organization", ORGANIZATIONS,
                    synonyms=("institution", "college")),
            Concept("enrollment", "number", low=1_000, high=70_000, decimals=0,
                    synonyms=("students",)),
            Concept("founded", "year", synonyms=("established",)),
            Concept("acceptance rate", "percent", low=4, high=80,
                    synonyms=("admission rate",)),
            Concept("tuition", "number", low=4_000, high=60_000, decimals=0),
        ),
        captions=("Universities in {place}", "University rankings {year}"),
    ),
    TopicSchema(
        topic="soccer clubs",
        concepts=(
            Concept("club", "entity", "organization", ORGANIZATIONS,
                    synonyms=("team",)),
            Concept("titles", "number", low=0, high=40, decimals=0,
                    synonyms=("trophies",)),
            Concept("stadium capacity", "number", low=10_000, high=99_000,
                    decimals=0, synonyms=("capacity",)),
            Concept("founded", "year"),
            Concept("manager", "entity", "person", _people(),
                    synonyms=("head coach", "coach")),
        ),
        captions=("Top soccer clubs of {place}", "League table {year}"),
    ),
    TopicSchema(
        topic="baseball players",
        concepts=(
            Concept("player", "entity", "person", _people(), synonyms=("name",)),
            Concept("batting average", "number", low=0.18, high=0.38, decimals=3),
            Concept("home runs", "number", low=0, high=60, decimals=0,
                    synonyms=("hr total",)),
            Concept("age", "range", low=19, high=40, decimals=0,
                    units=("years",), synonyms=("age range",)),
            Concept("team", "entity", "organization", ORGANIZATIONS),
        ),
        captions=("Baseball player statistics {year}",
                  "Batting leaders of {place}"),
    ),
    TopicSchema(
        topic="regions",
        concepts=(
            Concept("region", "entity", "place", PLACES, synonyms=("area name",)),
            Concept("population", "number", low=100_000, high=40_000_000,
                    decimals=0),
            Concept("gdp", "number", low=1, high=900, decimals=1,
                    synonyms=("gross product",)),
            Concept("unemployment", "percent", low=2, high=18,
                    synonyms=("jobless rate",)),
        ),
        captions=("Regions of {place} compared", "Regional indicators {year}"),
    ),
    TopicSchema(
        topic="music genres",
        concepts=(
            Concept("genre", "entity", "measurement", MUSIC_GENRES,
                    synonyms=("style",)),
            Concept("artists", "number", low=20, high=5_000, decimals=0),
            Concept("origin decade", "year", synonyms=("emerged",)),
            Concept("popularity", "percent", low=1, high=40,
                    synonyms=("share",)),
        ),
        captions=("Music genres by popularity", "Genre statistics {year}"),
    ),
)

# ----------------------------------------------------------------------
# CovidKG domain
# ----------------------------------------------------------------------
COVID_TOPICS = (
    TopicSchema(
        topic="vaccine efficacy",
        concepts=(
            Concept("vaccine", "entity", "vaccine", VACCINES,
                    synonyms=("vaccine name",)),
            Concept("efficacy", "percent", low=40, high=97,
                    synonyms=("effectiveness",)),
            Concept("dose", "number", units=_WEIGHT_UNITS, low=10, high=250,
                    decimals=0, synonyms=("dosage",)),
            Concept("interval", "range", units=("days", "weeks"), low=14,
                    high=60, decimals=0, synonyms=("dosing interval",)),
            Concept("antibody titer", "gaussian", low=100, high=2500,
                    decimals=0, synonyms=("titer",)),
        ),
        captions=("Vaccine efficacy against covid-19",
                  "Efficacy of vaccines in {place} trial {year}"),
        vmd_pool=("18-49 years", "50-64 years", "65+ years",
                  "immunocompromised", "healthcare workers", "pregnant"),
        vmd_groups=("Age Group", "Cohort"),
        hmd_groups=("Trial Arm", "Efficacy End Point", "Safety"),
    ),
    TopicSchema(
        topic="variant surveillance",
        concepts=(
            Concept("variant", "text",
                    entity_pool=("alpha variant", "beta variant", "gamma variant",
                                 "delta variant", "omicron variant"),
                    synonyms=("lineage",)),
            Concept("prevalence", "percent", low=0.5, high=90),
            Concept("transmissibility", "gaussian", low=1, high=9, decimals=1,
                    synonyms=("r number",)),
            Concept("first detected", "year"),
            Concept("cases", "number", low=100, high=900_000, decimals=0),
        ),
        captions=("SARS-CoV-2 variant surveillance, {place}",
                  "Variants of concern {year}"),
        vmd_pool=("wave 1", "wave 2", "wave 3", "winter surge", "summer lull"),
        vmd_groups=("Period",),
        hmd_groups=("Variant", "Epidemiology"),
    ),
    TopicSchema(
        topic="symptom prevalence",
        concepts=(
            Concept("symptom", "entity", "disease", SYMPTOMS,
                    synonyms=("clinical sign",)),
            Concept("prevalence", "percent", low=1, high=85,
                    synonyms=("frequency",)),
            Concept("onset", "range", units=("days",), low=1, high=14,
                    decimals=0, synonyms=("onset window",)),
            Concept("duration", "gaussian", units=("days",), low=2, high=21,
                    decimals=1),
        ),
        captions=("Symptom prevalence among covid-19 patients",
                  "Clinical presentation in {place} cohort"),
        vmd_pool=("outpatient", "hospitalized", "icu", "long covid"),
        vmd_groups=("Severity",),
        hmd_groups=("Symptom", "Course"),
    ),
    TopicSchema(
        topic="hospitalization outcomes",
        concepts=(
            Concept("treatment", "entity", "treatment", TREATMENTS),
            Concept("mortality", "percent", low=1, high=35,
                    synonyms=("death rate",)),
            Concept("length of stay", "gaussian", units=("days",), low=3,
                    high=30, decimals=1, synonyms=("los",)),
            Concept("oxygen saturation", "number", low=80, high=99,
                    decimals=0, synonyms=("spo2",)),
            Concept("blood pressure", "number", units=_PRESSURE_UNITS,
                    low=90, high=180, decimals=0),
        ),
        captions=("Hospitalization outcomes, {place} {year}",
                  "ICU outcomes for covid-19"),
        vmd_pool=("ward", "icu", "step-down", "discharged"),
        vmd_groups=("Unit",),
        hmd_groups=("Treatment", "Outcomes", "Vitals"),
    ),
    TopicSchema(
        topic="vaccination campaign",
        concepts=(
            Concept("region", "entity", "place", PLACES),
            Concept("doses administered", "number", low=10_000,
                    high=30_000_000, decimals=0, synonyms=("doses",)),
            Concept("coverage", "percent", low=10, high=95,
                    synonyms=("vaccination rate",)),
            Concept("booster uptake", "percent", low=5, high=70),
        ),
        captions=("Vaccination campaign progress in {place}",
                  "Vaccine rollout by region {year}"),
        vmd_pool=("q1", "q2", "q3", "q4"),
        vmd_groups=("Quarter",),
        hmd_groups=("Region", "Uptake"),
    ),
)

# ----------------------------------------------------------------------
# CancerKG domain
# ----------------------------------------------------------------------
CANCER_TOPICS = (
    TopicSchema(
        topic="treatment efficacy",
        concepts=(
            Concept("treatment", "entity", "treatment", TREATMENTS,
                    synonyms=("regimen", "therapy")),
            Concept("overall survival", "number", units=_TIME_UNITS, low=5,
                    high=40, decimals=1, synonyms=("os", "median os")),
            Concept("progression free survival", "number", units=_TIME_UNITS,
                    low=2, high=20, decimals=1, synonyms=("pfs",)),
            Concept("response rate", "percent", low=5, high=70,
                    synonyms=("orr", "objective response rate")),
            Concept("hazard ratio", "gaussian", low=0.4, high=1.4, decimals=2,
                    synonyms=("hr",)),
        ),
        captions=("Treatment efficacy in metastatic colorectal cancer",
                  "Efficacy end points, {place} trial {year}"),
        vmd_pool=("previously untreated",
                  "failing under fluoropyrimidine and irinotecan",
                  "second line", "third line", "maintenance"),
        vmd_groups=("Patient Cohort", "Line of Therapy"),
        hmd_groups=("Efficacy End Point", "Other Efficacy", "Safety"),
    ),
    TopicSchema(
        topic="adverse events",
        concepts=(
            Concept("drug", "entity", "drug", DRUGS, synonyms=("agent",)),
            Concept("grade 3 events", "percent", low=1, high=60,
                    synonyms=("grade 3-4",)),
            Concept("discontinuation", "percent", low=1, high=30),
            Concept("dose", "number", units=_WEIGHT_UNITS, low=5, high=500,
                    decimals=0, synonyms=("dosage",)),
            Concept("neutropenia", "percent", low=1, high=45),
        ),
        captions=("Adverse events by treatment arm",
                  "Safety profile, {place} study"),
        vmd_pool=("arm a", "arm b", "control", "experimental"),
        vmd_groups=("Study Arm",),
        hmd_groups=("Drug", "Toxicity"),
    ),
    TopicSchema(
        topic="patient demographics",
        concepts=(
            Concept("cohort", "text",
                    entity_pool=("colon", "rectal", "metastatic", "stage ii",
                                 "stage iii")),
            Concept("median age", "range", units=("years",), low=40, high=80,
                    decimals=0, synonyms=("age",)),
            Concept("male", "percent", low=30, high=70, synonyms=("male sex",)),
            Concept("bmi", "gaussian", low=18, high=35, decimals=1,
                    synonyms=("body mass index",)),
            Concept("enrollment", "number", low=40, high=1200, decimals=0,
                    synonyms=("n", "patients")),
        ),
        captions=("Baseline characteristics of study population",
                  "Patient demographics, {place} {year}"),
        vmd_pool=("treatment arm", "control arm", "overall"),
        vmd_groups=("Arm",),
        hmd_groups=("Characteristic", "Baseline"),
    ),
    TopicSchema(
        topic="biomarker analysis",
        concepts=(
            Concept("disease", "entity", "disease", DISEASES,
                    synonyms=("diagnosis",)),
            Concept("kras mutation", "percent", low=20, high=60,
                    synonyms=("kras",)),
            Concept("msi high", "percent", low=2, high=20, synonyms=("msi-h",)),
            Concept("cea level", "gaussian", low=1, high=60, decimals=1,
                    synonyms=("cea",)),
            Concept("tumor size", "number", units=_LENGTH_UNITS, low=1,
                    high=12, decimals=1),
        ),
        captions=("Biomarker distribution in colorectal cancer",
                  "Molecular profile of {place} cohort"),
        vmd_pool=("primary", "metastatic", "recurrent"),
        vmd_groups=("Disease Stage",),
        hmd_groups=("Biomarker", "Pathology"),
    ),
    TopicSchema(
        topic="screening programs",
        concepts=(
            Concept("program", "entity", "organization", ORGANIZATIONS),
            Concept("participation", "percent", low=20, high=80,
                    synonyms=("uptake",)),
            Concept("detection rate", "percent", low=0.1, high=5, decimals=2),
            Concept("screened", "number", low=1_000, high=900_000,
                    decimals=0, synonyms=("invited",)),
            Concept("interval", "range", units=("years",), low=1, high=5,
                    decimals=0),
        ),
        captions=("Colorectal cancer screening outcomes, {place}",
                  "Screening program results {year}"),
        vmd_pool=("50-59 years", "60-69 years", "70-75 years"),
        vmd_groups=("Age Band",),
        hmd_groups=("Program", "Yield"),
    ),
)

# ----------------------------------------------------------------------
# SAUS domain (Statistical Abstract of the US)
# ----------------------------------------------------------------------
SAUS_TOPICS = (
    TopicSchema(
        topic="finance",
        concepts=(
            Concept("state", "entity", "place", PLACES),
            Concept("median income", "number", low=35_000, high=95_000,
                    decimals=0, synonyms=("household income",)),
            Concept("poverty rate", "percent", low=5, high=25),
            Concept("bank deposits", "number", low=1, high=900, decimals=1),
            Concept("tax revenue", "number", low=1, high=300, decimals=1),
        ),
        captions=("State finances, {year}", "Income and poverty by state"),
        vmd_pool=("northeast", "midwest", "south", "west"),
        vmd_groups=("Region",),
        hmd_groups=("State", "Income", "Revenue"),
    ),
    TopicSchema(
        topic="agriculture",
        concepts=(
            Concept("state", "entity", "place", PLACES),
            Concept("farms", "number", low=1_000, high=250_000, decimals=0),
            Concept("acreage", "number", low=100, high=60_000, decimals=0,
                    synonyms=("farm acres",)),
            Concept("crop value", "number", low=0.1, high=30, decimals=1),
            Concept("yield", "gaussian", low=20, high=220, decimals=0),
        ),
        captions=("Farms and farm acreage by state", "Agriculture summary {year}"),
        vmd_pool=("2000", "2005", "2008", "2009", "2010"),
        vmd_groups=("Year",),
        hmd_groups=("State", "Production"),
    ),
    TopicSchema(
        topic="health care",
        concepts=(
            Concept("state", "entity", "place", PLACES),
            Concept("physicians", "number", low=500, high=90_000, decimals=0),
            Concept("uninsured", "percent", low=3, high=25),
            Concept("hospital beds", "number", low=1_000, high=80_000,
                    decimals=0),
            Concept("life expectancy", "number", units=("years",), low=72,
                    high=82, decimals=1),
        ),
        captions=("Health care resources by state", "Health indicators {year}"),
        vmd_pool=("urban", "rural", "total"),
        vmd_groups=("Area Type",),
        hmd_groups=("State", "Resources", "Outcomes"),
    ),
    TopicSchema(
        topic="education",
        concepts=(
            Concept("state", "entity", "place", PLACES),
            Concept("enrollment", "number", low=50_000, high=6_000_000,
                    decimals=0, synonyms=("students",)),
            Concept("graduation rate", "percent", low=60, high=95),
            Concept("spending per pupil", "number", low=6_000, high=22_000,
                    decimals=0),
        ),
        captions=("Public school statistics by state", "Education summary {year}"),
        vmd_pool=("elementary", "secondary", "total"),
        vmd_groups=("Level",),
        hmd_groups=("State", "Spending"),
    ),
    TopicSchema(
        topic="business",
        concepts=(
            Concept("industry", "text",
                    entity_pool=("manufacturing", "retail trade", "construction",
                                 "information", "finance and insurance",
                                 "transportation")),
            Concept("establishments", "number", low=5_000, high=700_000,
                    decimals=0, synonyms=("firms",)),
            Concept("employees", "number", low=50_000, high=18_000_000,
                    decimals=0, synonyms=("employment",)),
            Concept("payroll", "number", low=1, high=900, decimals=1),
        ),
        captions=("Business establishments by industry", "Industry summary {year}"),
        vmd_pool=("small", "medium", "large"),
        vmd_groups=("Firm Size",),
        hmd_groups=("Industry", "Employment"),
    ),
)

# ----------------------------------------------------------------------
# CIUS domain (Crime In the US)
# ----------------------------------------------------------------------
CIUS_TOPICS = (
    TopicSchema(
        topic="violent crime",
        concepts=(
            Concept("offense", "entity", "measurement", CRIMES,
                    synonyms=("crime type",)),
            Concept("incidents", "number", low=100, high=90_000, decimals=0,
                    synonyms=("offenses",)),
            Concept("rate per 100k", "number", low=1, high=900, decimals=1,
                    synonyms=("crime rate",)),
            Concept("cleared", "percent", low=10, high=70,
                    synonyms=("clearance rate",)),
        ),
        captions=("Violent crime by offense, {place} {year}",
                  "Crime in the United States: violent offenses"),
        vmd_pool=("2006", "2007", "2008", "2009", "2010"),
        vmd_groups=("Year",),
        hmd_groups=("Offense", "Counts", "Rates"),
    ),
    TopicSchema(
        topic="property crime",
        concepts=(
            Concept("offense", "entity", "measurement", CRIMES),
            Concept("incidents", "number", low=1_000, high=400_000, decimals=0),
            Concept("loss value", "number", low=0.1, high=90, decimals=1,
                    synonyms=("property loss",)),
            Concept("rate per 100k", "number", low=50, high=3_500, decimals=1),
        ),
        captions=("Property crime statistics, {place}",
                  "Property offenses by type {year}"),
        vmd_pool=("metropolitan", "cities outside metro", "nonmetropolitan"),
        vmd_groups=("Area",),
        hmd_groups=("Offense", "Losses"),
    ),
    TopicSchema(
        topic="arrests",
        concepts=(
            Concept("state", "entity", "place", PLACES),
            Concept("arrests", "number", low=1_000, high=900_000, decimals=0),
            Concept("juvenile share", "percent", low=2, high=25),
            Concept("officers", "number", low=500, high=60_000, decimals=0,
                    synonyms=("sworn officers",)),
        ),
        captions=("Arrests by state, {year}", "Law enforcement arrests summary"),
        vmd_pool=("violent", "property", "drug", "other"),
        vmd_groups=("Offense Class",),
        hmd_groups=("State", "Personnel"),
    ),
    TopicSchema(
        topic="law enforcement employees",
        concepts=(
            Concept("city", "entity", "place", PLACES),
            Concept("officers", "number", low=50, high=36_000, decimals=0),
            Concept("civilians", "number", low=10, high=12_000, decimals=0),
            Concept("per 1000 residents", "number", low=1, high=5, decimals=1),
        ),
        captions=("Full-time law enforcement employees, {place}",
                  "Police staffing {year}"),
        vmd_pool=("total", "male", "female"),
        vmd_groups=("Breakdown",),
        hmd_groups=("City", "Staffing"),
    ),
)


DOMAIN_TOPICS: dict[str, tuple[TopicSchema, ...]] = {
    "webtables": WEBTABLES_TOPICS,
    "covidkg": COVID_TOPICS,
    "cancerkg": CANCER_TOPICS,
    "saus": SAUS_TOPICS,
    "cius": CIUS_TOPICS,
}

// The study coverage atlas: what the fault matrix actually exercised.
//
// A run of the recovery matrix claims to cover a space — every taxonomy
// cell (fault class × trigger), every injectable fault site, every
// environment failure branch, every recovery-state-machine edge. The atlas
// is the machine-checked record of that claim: per-probe hit counts, the
// never-hit "blind spot" list, per-specimen coverage vectors, and the
// mechanism × trigger recovery grid.
//
// Determinism: run_matrix gives every (mechanism, seed) cell its own
// CoverageMap in a per-index slot and folds them here serially in index
// order, so an atlas — and every artifact rendered from it — is
// bit-identical for any `--threads` value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/taxonomy.hpp"
#include "corpus/seeds.hpp"
#include "obs/probes.hpp"

namespace faultstudy::obs {

/// Stable export name of a structural probe, e.g. "env/fd_denied".
std::string_view site_name(Site site) noexcept;

/// Stable export name of an injection-site probe, e.g. "inject/race_condition".
std::string inject_site_name(core::Trigger trigger);

/// Section prefix of a structural probe ("env", "app", "recovery", "trial").
std::string_view site_section(Site site) noexcept;

/// Union coverage of one specimen across every mechanism and repeat that
/// exercised it, in seed order.
struct SpecimenCoverage {
  std::string fault_id;
  core::AppId app = core::AppId::kApache;
  core::Trigger trigger = core::Trigger::kBoundaryInput;
  core::FaultClass fault_class = core::FaultClass::kEnvironmentIndependent;
  std::uint64_t trials = 0;
  CoverageMap probes;

  bool operator==(const SpecimenCoverage&) const = default;
};

/// One mechanism's recovery grid over the trigger axis: how many trials of
/// each trigger observed the fault, and how many of those survived.
struct MechanismGrid {
  std::string mechanism;
  std::array<std::uint64_t, core::kNumTriggers> observed{};
  std::array<std::uint64_t, core::kNumTriggers> survived{};

  bool operator==(const MechanismGrid&) const = default;
};

class CoverageAtlas {
 public:
  /// Registers the specimen axis up front (seed order), so per-specimen
  /// vectors exist — and report zero coverage — even for seeds whose cells
  /// never ran. Serial-only; call before a parallel sweep folds into it.
  void begin_study(const std::vector<corpus::SeedFault>& seeds,
                   const std::vector<std::string>& mechanisms);

  /// Folds one matrix cell: the merged coverage of every repeat of
  /// (mechanism, seed), plus the cell's observed/survived trial counts.
  /// Serial-only, called in index order by run_matrix's reduction.
  void fold_cell(std::size_t mechanism_index, std::size_t seed_index,
                 const CoverageMap& probes, std::uint64_t trials,
                 std::uint64_t observed, std::uint64_t survived);

  /// Folds a single stand-alone trial (`faultstudy_cli simulate`).
  void fold_trial(const corpus::SeedFault& seed, const CoverageMap& probes);

  // --- the folded planes ---
  const CoverageMap& totals() const noexcept { return totals_; }
  const std::vector<SpecimenCoverage>& specimens() const noexcept {
    return specimens_;
  }
  const std::vector<MechanismGrid>& grids() const noexcept { return grids_; }
  std::uint64_t trials() const noexcept { return trials_; }

  // --- derived coverage summaries ---
  /// Structural + injection probes with at least one hit.
  std::size_t probes_hit() const noexcept { return totals_.probes_hit(); }
  /// Full universe the study claims: kProbeUniverse.
  static constexpr std::size_t probe_universe() noexcept {
    return kProbeUniverse;
  }
  /// Taxonomy cells (fault class × trigger; each trigger names exactly one
  /// reachable cell) whose injection site was armed at least once.
  std::size_t cells_covered() const noexcept;
  static constexpr std::size_t cell_universe() noexcept {
    return core::kNumTriggers;
  }
  /// Names of probes that no trial ever hit, in export order (structural
  /// sites first, then injection sites).
  std::vector<std::string> blind_spots() const;

  bool operator==(const CoverageAtlas&) const = default;

 private:
  CoverageMap totals_;
  std::vector<SpecimenCoverage> specimens_;
  std::vector<MechanismGrid> grids_;
  std::uint64_t trials_ = 0;
};

}  // namespace faultstudy::obs

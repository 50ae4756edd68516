//! The ten benchmark kernels.

pub mod bt;
pub mod cg;
pub mod dc;
pub mod ft;
pub mod is;
pub mod kmeans;
pub mod lu;
pub mod lulesh;
pub mod mg;
pub mod sp;

pub use bt::{bt, bt_sized};
pub use cg::{cg, cg_with};
pub use dc::{dc, dc_sized};
pub use ft::{ft, ft_sized};
pub use is::is;
pub use kmeans::kmeans;
pub use lu::{lu, lu_sized};
pub use lulesh::lulesh;
pub use mg::mg;
pub use sp::{sp, sp_sized};

use crate::spec::{App, AppSize};

/// Builds one application at a problem size.
type Builder = fn(AppSize) -> App;

/// The registry: every application's canonical name and builder, in the
/// paper's Table IV order.  The one place the name → builder mapping lives;
/// [`all_apps_sized`], [`app_by_name_sized`] and [`canonical_name`] all
/// read it.  The size knob scales the five promoted kernels (LU, BT, SP, DC,
/// FT); the original five run their single calibrated size either way.
const REGISTRY: [(&str, Builder); 10] = [
    ("CG", |_| cg()),
    ("MG", |_| mg()),
    ("LU", lu_sized),
    ("BT", bt_sized),
    ("IS", |_| is()),
    ("DC", dc_sized),
    ("SP", sp_sized),
    ("FT", ft_sized),
    ("KMEANS", |_| kmeans()),
    ("LULESH", |_| lulesh()),
];

/// All ten applications of the paper's evaluation, in Table IV order, at the
/// quick (Class-S-style) problem size — the registry campaign plans resolve
/// against.
pub fn all_apps() -> Vec<App> {
    all_apps_sized(AppSize::Quick)
}

/// All ten applications at a chosen problem size.
pub fn all_apps_sized(size: AppSize) -> Vec<App> {
    REGISTRY.iter().map(|(_, build)| build(size)).collect()
}

/// The registry's canonical spelling of an application name, resolved
/// case-insensitively without building anything.
pub fn canonical_name(name: &str) -> Option<&'static str> {
    registry_entry(name).map(|(canonical, _)| *canonical)
}

/// Look an application up by its (case-insensitive) name, at the quick size.
pub fn app_by_name(name: &str) -> Option<App> {
    app_by_name_sized(name, AppSize::Quick)
}

/// Look an application up by its (case-insensitive) name, at a chosen size.
/// Builds only the requested application.
pub fn app_by_name_sized(name: &str, size: AppSize) -> Option<App> {
    registry_entry(name).map(|(_, build)| build(size))
}

fn registry_entry(name: &str) -> Option<&'static (&'static str, Builder)> {
    REGISTRY
        .iter()
        .find(|(canonical, _)| canonical.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_apps_with_unique_names() {
        let apps = all_apps();
        assert_eq!(apps.len(), 10);
        let names: std::collections::HashSet<_> = apps.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert!(app_by_name("cg").is_some());
        assert!(app_by_name("LULESH").is_some());
        assert!(app_by_name("kmeans").is_some());
        assert!(app_by_name("nope").is_none());
        assert_eq!(canonical_name("nope"), None);
        assert_eq!(canonical_name("Kmeans"), Some("KMEANS"));
        // Every registry name, any spelling, builds exactly the matching
        // `all_apps_sized` entry at both sizes.
        for size in [AppSize::Quick, AppSize::ClassW] {
            for listed in all_apps_sized(size) {
                for spelling in [listed.name.to_string(), listed.name.to_ascii_lowercase()] {
                    assert_eq!(canonical_name(&spelling), Some(listed.name));
                    let found = app_by_name_sized(&spelling, size)
                        .unwrap_or_else(|| panic!("{spelling} is in the registry"));
                    assert_eq!(found.name, listed.name);
                    assert_eq!(found.size, listed.size);
                    assert_eq!(found.regions, listed.regions);
                    assert!(found.module == listed.module, "{spelling} module differs");
                }
            }
        }
    }

    #[test]
    fn every_app_verifies_and_completes_cleanly() {
        for app in all_apps() {
            assert!(
                app.module.verify().is_ok(),
                "{} module is malformed",
                app.name
            );
            let result = app.run_clean();
            assert!(
                app.verify(&result),
                "{} fault-free run fails its own verification",
                app.name
            );
        }
    }

    #[test]
    fn every_app_has_its_named_regions_in_the_trace() {
        use ftkr_trace::{partition_regions, RegionSelector};
        for app in all_apps() {
            let traced = app.run_traced();
            let trace = traced.trace.as_ref().unwrap();
            let regions = partition_regions(trace, &app.module, &RegionSelector::FirstLevelInner);
            let found: std::collections::HashSet<_> =
                regions.iter().map(|r| r.key.name.clone()).collect();
            for wanted in &app.regions {
                assert!(
                    found.contains(wanted),
                    "{}: region {wanted} not found among {found:?}",
                    app.name
                );
            }
        }
    }

    #[test]
    fn clean_runs_stay_within_the_intended_dynamic_size_budget() {
        for app in all_apps() {
            let result = app.run_clean();
            assert!(
                result.steps < 2_000_000,
                "{} runs {} dynamic instructions; campaigns would be too slow",
                app.name,
                result.steps
            );
            assert!(result.steps > 500, "{} is suspiciously small", app.name);
        }
    }
}

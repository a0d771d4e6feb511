//! `glare` — a small CLI over the simulated VO, for poking at the
//! framework without writing a program.
//!
//! ```text
//! glare demo                         end-to-end §2.2 walkthrough
//! glare provision <activity> [n]     provision an activity on an n-site VO
//! glare undeploy  <type> [n]         provision then undeploy, showing cleanup
//! glare wrap      <activity> [n]     provision then Otho-wrap the first executable
//! glare inventory                    list the built-in types and packages
//! ```
//!
//! A given `[n]` must be a site count of at least 1 (absent, the VO has 3
//! sites); anything else prints the usage and exits 2.

use glare::core::grid::Grid;
use glare::core::model::example_hierarchy;
use glare::core::rdm::deploy_manager::{provision, ProvisionRequest};
use glare::core::rdm::lifecycle::{generate_wrapper_service, undeploy};
use glare::fabric::SimTime;
use glare::services::{packages, ChannelKind, Transport};

fn usage() -> ! {
    eprintln!(
        "usage: glare <command> [args]\n\
         \n\
         commands:\n\
         \x20 demo                      run the quickstart walkthrough\n\
         \x20 provision <activity> [n]  provision an activity on an n-site VO (default 3)\n\
         \x20 undeploy  <type> [n]      provision then undeploy a type\n\
         \x20 wrap      <activity> [n]  provision then generate a WS wrapper\n\
         \x20 inventory                 list built-in activity types and packages"
    );
    std::process::exit(2);
}

fn build_vo(n: usize) -> Grid {
    let mut grid = Grid::new(n, Transport::Http);
    for ty in example_hierarchy(SimTime::ZERO) {
        grid.register_type(0, ty, SimTime::ZERO).unwrap();
    }
    grid
}

fn do_provision(grid: &mut Grid, activity: &str) -> Result<Vec<(usize, String)>, String> {
    let outcome = provision(
        grid,
        &ProvisionRequest {
            activity: activity.to_owned(),
            client: "glare-cli".into(),
            channel: ChannelKind::Expect,
            from_site: 0,
            preferred_site: None,
        },
        SimTime::from_secs(1),
    )
    .map_err(|e| e.to_string())?;
    for r in &outcome.installs {
        println!(
            "installed {:<10} on {:<22} ({} ms total; install {} ms, comm {} ms)",
            r.package,
            r.site,
            r.breakdown.total().as_millis(),
            r.breakdown.installation.as_millis(),
            r.breakdown.communication.as_millis(),
        );
    }
    let mut keys = Vec::new();
    for (site, d) in &outcome.deployments {
        println!(
            "deployment {:<26} [{:<10}] on site{site}",
            d.key,
            d.access.category()
        );
        keys.push((*site, d.key.clone()));
    }
    println!("client-visible cost: {}", outcome.total_cost);
    Ok(keys)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let sites = |idx: usize| -> usize {
        let Some(arg) = args.get(idx) else { return 3 };
        match arg.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("[n] expects an integer >= 1, got `{arg}`");
                usage()
            }
        }
    };
    match cmd {
        "demo" => {
            let mut grid = build_vo(3);
            println!("== provisioning abstract type 'Imaging' on a 3-site VO ==");
            do_provision(&mut grid, "Imaging").expect("demo provisions");
            println!("\n== second request is served from the registries ==");
            do_provision(&mut grid, "POVray").expect("reuse works");
        }
        "provision" => {
            let Some(activity) = args.get(1) else { usage() };
            let mut grid = build_vo(sites(2));
            if let Err(e) = do_provision(&mut grid, activity) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        "undeploy" => {
            let Some(type_name) = args.get(1) else { usage() };
            let mut grid = build_vo(sites(2));
            if let Err(e) = do_provision(&mut grid, type_name) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            match undeploy(&mut grid, type_name, None, false, SimTime::from_secs(10)) {
                Ok(report) => {
                    for (key, site) in &report.removed {
                        println!("removed deployment {key} from {site}");
                    }
                    for (pkg, site) in &report.uninstalled {
                        println!("uninstalled package {pkg} from {site}");
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        "wrap" => {
            let Some(activity) = args.get(1) else { usage() };
            let mut grid = build_vo(sites(2));
            let keys = match do_provision(&mut grid, activity) {
                Ok(k) => k,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            };
            let Some((site, key)) = keys.iter().find(|(_, k)| !k.starts_with("WS-")) else {
                eprintln!("error: no executable deployment to wrap");
                std::process::exit(1);
            };
            match generate_wrapper_service(&mut grid, *site, key, SimTime::from_secs(5)) {
                Ok((wrapper, cost)) => println!(
                    "generated wrapper {} ({}) in {}",
                    wrapper.key,
                    match &wrapper.access {
                        glare::core::model::DeploymentAccess::Service { address } =>
                            address.clone(),
                        _ => unreachable!(),
                    },
                    cost
                ),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        "inventory" => {
            println!("activity types (built-in example hierarchy):");
            for t in example_hierarchy(SimTime::ZERO) {
                println!(
                    "  {:<10} {:?}{}{}",
                    t.name,
                    t.kind,
                    if t.base_types.is_empty() {
                        String::new()
                    } else {
                        format!("  extends {}", t.base_types.join(", "))
                    },
                    if t.dependencies.is_empty() {
                        String::new()
                    } else {
                        format!("  needs {}", t.dependencies.join(", "))
                    },
                );
            }
            println!("\npackages (catalog):");
            for p in packages::catalog() {
                println!(
                    "  {:<10} v{:<6} {:>9} bytes  {:?}  install ~{} ms",
                    p.name,
                    p.version,
                    p.archive_bytes,
                    p.build_system,
                    p.total_install_cost().as_millis(),
                );
            }
        }
        _ => usage(),
    }
}

//! On-demand deployment mechanics, close to the metal: a Fig. 9-style
//! deploy-file is parsed, planned, and driven through the Expect-based
//! deployment handler against a site's virtual shell — including the
//! POVray installer's interactive license dialog.
//!
//! ```sh
//! cargo run --example ondemand_deployment
//! ```

use glare::core::deployfile::{DeployFile, PlannedAction};
use glare::fabric::topology::{LinkSpec, Platform};
use glare::services::gridftp::{self, Repository};
use glare::services::vfs::VPath;
use glare::services::{packages, run_expect, SiteHost};

fn main() {
    // The provider's deploy-file for POVray, generated the way GLARE does
    // when a catalog package is registered. Print it as XML — compare
    // with the paper's Fig. 9.
    let repo = Repository::with_catalog();
    let spec = packages::povray();
    let md5 = repo.md5_of(&spec.archive_url);
    let deploy_file = DeployFile::for_package(&spec, md5);
    println!("deploy-file for {}:\n{}", spec.name, deploy_file.to_xml().to_xml_pretty());

    // Substitute the default environment variables (§3.4) and plan.
    let mut host = SiteHost::new("target.agrid.example", Platform::intel_linux_32());
    let plan = deploy_file
        .plan(SiteHost::default_env())
        .expect("valid plan");
    println!("planned actions:");
    for a in &plan {
        match a {
            PlannedAction::Transfer { step, url, destination, .. } => {
                println!("  [{step:<10}] transfer {url} -> {destination}");
            }
            PlannedAction::Shell { step, command, workdir, .. } => {
                println!("  [{step:<10}] sh -c '{command}'  (in {workdir})");
            }
        }
    }

    // Execute the plan by hand: transfers via GridFTP, commands via the
    // Expect deployment handler with the scripted dialog.
    let mut session = host.open_session();
    let mut interactions = 0;
    for action in &plan {
        match action {
            PlannedAction::Transfer { url, destination, md5, .. } => {
                let receipt = gridftp::download(
                    &repo,
                    url,
                    &mut host,
                    &VPath::new(destination),
                    LinkSpec::wan_default(),
                    *md5,
                )
                .expect("transfer succeeds");
                println!(
                    "\ndownloaded {} bytes (md5 {}) in {}",
                    receipt.bytes,
                    if receipt.verified { "verified" } else { "unchecked" },
                    receipt.cost
                );
            }
            PlannedAction::Shell {
                command, workdir, ..
            } => {
                assert!(
                    host.enter_dir(&mut session, workdir),
                    "cannot enter {workdir}"
                );
                let out = run_expect(&mut host, &mut session, command, &deploy_file.dialog)
                    .unwrap_or_else(|e| panic!("step failed: {e}"));
                interactions += out.interactions;
                println!(
                    "ran '{command}' (cost {}, {} prompt(s) answered)",
                    out.result.cost, out.interactions
                );
            }
        }
    }
    println!("\ninstaller prompts automated by the Expect dialog: {interactions}");

    // GLARE identifies deployments by exploring the install tree (§3.4).
    let record = host.installation("povray").expect("installed");
    println!("install home: {}", record.home);
    for exe in host.vfs.find_executables(&record.home) {
        println!("discovered executable deployment: {exe}");
    }
    assert!(host.is_installed("povray"));
    assert_eq!(interactions, 3, "license, user type, install path");
}

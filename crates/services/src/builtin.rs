//! Built-in example services.
//!
//! The GamerQueen example (paper §II-B): *"If Ann had a real-time
//! pricing and in-stock service available, it too could be included as
//! service-based supplemental content."* These are those services:
//! deterministic functions of the queried item name, so scenarios and
//! tests are stable without any stored state.

use crate::message::{ServiceRequest, ServiceResponse};
use crate::service::{OperationDesc, Protocol, Service, ServiceDescription, ServiceFault};

/// Not FNV-1a: 0x1000_0000_01b3 is not the FNV prime. Simulated prices
/// and stock depend on it, so changing it moves the pinned checksums.
fn item_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.to_lowercase().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn missing_item() -> ServiceFault {
    ServiceFault {
        code: 400,
        message: "missing 'item' parameter".into(),
    }
}

/// Real-time pricing: `/price?item=...` -> `price`, `currency`,
/// `on_sale`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PricingService;

impl Service for PricingService {
    fn describe(&self) -> ServiceDescription {
        ServiceDescription {
            name: "Real-time pricing".into(),
            protocol: Protocol::Rest,
            operations: vec![OperationDesc {
                name: "/price".into(),
                params: vec!["item".into()],
                returns: vec![
                    "item".into(),
                    "price".into(),
                    "currency".into(),
                    "on_sale".into(),
                ],
            }],
        }
    }

    fn handle(&self, request: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
        let item = request.param("item").ok_or_else(missing_item)?;
        let h = item_hash(item);
        let cents = 999 + (h % 5000); // $9.99 .. $59.98
        let on_sale = h.is_multiple_of(5);
        let cents = if on_sale { cents * 8 / 10 } else { cents };
        Ok(ServiceResponse::single(&[
            ("item", item),
            ("price", &format!("{}.{:02}", cents / 100, cents % 100)),
            ("currency", "USD"),
            ("on_sale", if on_sale { "true" } else { "false" }),
        ]))
    }
}

/// In-stock inventory: `/stock?item=...` -> `in_stock`, `quantity`,
/// `warehouse`.
#[derive(Debug, Default, Clone, Copy)]
pub struct InventoryService;

impl Service for InventoryService {
    fn describe(&self) -> ServiceDescription {
        ServiceDescription {
            name: "In-stock inventory".into(),
            protocol: Protocol::Soap,
            operations: vec![OperationDesc {
                name: "CheckStock".into(),
                params: vec!["item".into()],
                returns: vec![
                    "item".into(),
                    "in_stock".into(),
                    "quantity".into(),
                    "warehouse".into(),
                ],
            }],
        }
    }

    fn handle(&self, request: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
        let item = request.param("item").ok_or_else(missing_item)?;
        let h = item_hash(item);
        let quantity = h % 25;
        let warehouse = ["north", "south", "east"][(h >> 8) as usize % 3];
        Ok(ServiceResponse::single(&[
            ("item", item),
            ("in_stock", if quantity > 0 { "true" } else { "false" }),
            ("quantity", &quantity.to_string()),
            ("warehouse", warehouse),
        ]))
    }
}

/// Editorial blurbs: `/review?item=...` -> `rating`, `blurb`. No
/// platform source calls it; the tests use it as a third REST service.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ReviewBlurbService;

#[cfg(test)]
const BLURBS: [&str; 5] = [
    "an instant classic",
    "surprisingly deep",
    "solid but unspectacular",
    "fans will enjoy it",
    "a bold experiment",
];

#[cfg(test)]
impl Service for ReviewBlurbService {
    fn describe(&self) -> ServiceDescription {
        ServiceDescription {
            name: "Editorial blurbs".into(),
            protocol: Protocol::Rest,
            operations: vec![OperationDesc {
                name: "/review".into(),
                params: vec!["item".into()],
                returns: vec!["item".into(), "rating".into(), "blurb".into()],
            }],
        }
    }

    fn handle(&self, request: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
        let item = request.param("item").ok_or_else(missing_item)?;
        let h = item_hash(item);
        let rating = 1 + (h % 5);
        Ok(ServiceResponse::single(&[
            ("item", item),
            ("rating", &rating.to_string()),
            ("blurb", BLURBS[(h >> 16) as usize % BLURBS.len()]),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::SoapRequest;

    #[test]
    fn pricing_is_deterministic_and_well_formed() {
        let s = PricingService;
        let req = ServiceRequest::get("/price", &[("item", "Galactic Raiders")]);
        let a = s.handle(&req).unwrap();
        let b = s.handle(&req).unwrap();
        assert_eq!(a, b);
        let price: f64 = a.first_field("price").unwrap().parse().unwrap();
        assert!((5.0..60.0).contains(&price), "price = {price}");
        assert_eq!(a.first_field("currency"), Some("USD"));
    }

    #[test]
    fn different_items_price_differently() {
        let s = PricingService;
        let a = s
            .handle(&ServiceRequest::get("/price", &[("item", "A")]))
            .unwrap();
        let b = s
            .handle(&ServiceRequest::get("/price", &[("item", "B")]))
            .unwrap();
        assert_ne!(a.first_field("price"), b.first_field("price"));
    }

    #[test]
    fn missing_item_faults() {
        for svc in [
            Box::new(PricingService) as Box<dyn Service>,
            Box::new(InventoryService),
            Box::new(ReviewBlurbService),
        ] {
            let err = svc.handle(&ServiceRequest::get("/x", &[])).unwrap_err();
            assert_eq!(err.code, 400);
        }
    }

    #[test]
    fn inventory_quantity_consistent_with_flag() {
        let s = InventoryService;
        for item in [
            "Galactic Raiders",
            "Farm Story",
            "Laser Golf",
            "Puzzle Palace",
        ] {
            let r = s
                .handle(&ServiceRequest::Soap(SoapRequest {
                    operation: "CheckStock".into(),
                    args: vec![("item".into(), item.into())],
                }))
                .unwrap();
            let q: u64 = r.first_field("quantity").unwrap().parse().unwrap();
            let flag = r.first_field("in_stock").unwrap();
            assert_eq!(flag == "true", q > 0, "{item}");
        }
    }

    #[test]
    fn blurbs_rating_in_range() {
        let s = ReviewBlurbService;
        let r = s
            .handle(&ServiceRequest::get("/review", &[("item", "Farm Story")]))
            .unwrap();
        let rating: u32 = r.first_field("rating").unwrap().parse().unwrap();
        assert!((1..=5).contains(&rating));
        assert!(!r.first_field("blurb").unwrap().is_empty());
    }

    #[test]
    fn descriptions_list_operations() {
        assert_eq!(PricingService.describe().operations[0].name, "/price");
        assert_eq!(InventoryService.describe().protocol, Protocol::Soap);
        assert_eq!(ReviewBlurbService.describe().operations.len(), 1);
    }
}

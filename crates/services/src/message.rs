//! Request/response message model for simulated web services.
//!
//! The paper (§II-A): *"Symphony also supports dynamic data accessed
//! through SOAP and REST-based web services."* Both protocols are
//! modeled: a REST request is a method + path + query parameters; a
//! SOAP request is an operation + arguments. Responses are uniform
//! record sets, which is what the integration layer consumes.

/// HTTP-ish method for REST calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestMethod {
    /// Read.
    Get,
    /// Write (used by monitoring endpoints in tests).
    Post,
}

/// A REST request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestRequest {
    /// Method.
    pub method: RestMethod,
    /// Path under the endpoint ("/price").
    pub path: String,
    /// Query parameters in order.
    pub params: Vec<(String, String)>,
}

/// A SOAP request (envelope reduced to its operation + arguments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoapRequest {
    /// Operation name ("GetPrice").
    pub operation: String,
    /// Arguments in order.
    pub args: Vec<(String, String)>,
}

/// A protocol-tagged request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceRequest {
    /// REST-style.
    Rest(RestRequest),
    /// SOAP-style.
    Soap(SoapRequest),
}

impl ServiceRequest {
    /// Build a GET request.
    pub fn get(path: &str, params: &[(&str, &str)]) -> ServiceRequest {
        ServiceRequest::Rest(RestRequest {
            method: RestMethod::Get,
            path: path.to_string(),
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        })
    }

    /// Parameter lookup, protocol-independent.
    pub fn param(&self, name: &str) -> Option<&str> {
        let pairs = match self {
            ServiceRequest::Rest(r) => &r.params,
            ServiceRequest::Soap(s) => &s.args,
        };
        pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The operation identity: REST path or SOAP operation name.
    pub fn operation(&self) -> &str {
        match self {
            ServiceRequest::Rest(r) => &r.path,
            ServiceRequest::Soap(s) => &s.operation,
        }
    }
}

/// One record in a response: ordered `(field, value)` pairs.
pub type ServiceRecord = Vec<(String, String)>;

/// A service response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceResponse {
    /// Records returned (empty on errors).
    pub records: Vec<ServiceRecord>,
}

impl ServiceResponse {
    /// A response with the given records.
    pub fn records(records: Vec<ServiceRecord>) -> ServiceResponse {
        ServiceResponse { records }
    }

    /// A single-record response from `(field, value)` pairs.
    pub fn single(fields: &[(&str, &str)]) -> ServiceResponse {
        ServiceResponse {
            records: vec![fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()],
        }
    }

    /// An empty (no-records) response.
    pub fn empty() -> ServiceResponse {
        ServiceResponse {
            records: Vec::new(),
        }
    }

    /// Field of the first record.
    pub fn first_field(&self, name: &str) -> Option<&str> {
        self.records
            .first()?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rest_builder_and_param() {
        let r = ServiceRequest::get("/price", &[("title", "Galactic Raiders")]);
        assert_eq!(r.operation(), "/price");
        assert_eq!(r.param("title"), Some("Galactic Raiders"));
        assert_eq!(r.param("missing"), None);
    }

    #[test]
    fn soap_builder_and_param() {
        let r = ServiceRequest::Soap(SoapRequest {
            operation: "GetPrice".into(),
            args: vec![("sku".into(), "42".into())],
        });
        assert_eq!(r.operation(), "GetPrice");
        assert_eq!(r.param("sku"), Some("42"));
    }

    #[test]
    fn response_accessors() {
        let resp = ServiceResponse::single(&[("price", "49.99"), ("currency", "USD")]);
        assert_eq!(resp.first_field("price"), Some("49.99"));
        assert_eq!(resp.first_field("nope"), None);
        assert_eq!(ServiceResponse::empty().first_field("x"), None);
    }
}
